"""Random models that carry an affine Landau-Ginzburg phase by construction.

The recipe: draw a nonsingular square block ``R``, then rejection-sample
the remaining columns from a box until each lies in the closed negative
cone of ``R``.  The concatenation ``Q = (R | S)`` then admits the witness
``{0, ..., r-1}`` by construction.  Optional padding rows are integer
combinations of the rows drawn so far; they change the row space not at
all, which downstream analysis quotients away.

Randomness comes from SplitMix64, a named, documented, splittable 64-bit
generator with published reference outputs; every draw is pure integer
arithmetic, so a seed reproduces the same model byte for byte on any
platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import linalg, phases
from .errors import RejectionBudgetExceeded
from .linalg import IntMatrix

__all__ = [
    "SplitMix64",
    "GeneratorConfig",
    "random_lg_model",
    "witness_of_construction",
    "ATTEMPT_BUDGET",
    "MAX_ENTRIES",
]

_MASK64 = (1 << 64) - 1

# attempts allowed per rejection-sampled object (the block, each column)
ATTEMPT_BUDGET = 10_000

# most entries a model may hold, counting padding rows: (r + pad) * (r + n)
MAX_ENTRIES = 1_000_000


class SplitMix64:
    """SplitMix64 stream (Steele, Lea; Vigna's reference constants).

    State advances by the odd gamma ``0x9E3779B97F4A7C15``; outputs mix the
    state with two xor-shift multiplies.  Reference value: seed 0 produces
    ``0xE220A8397B1DCDAF`` first.

    >>> hex(SplitMix64(0).next_uint64())
    '0xe220a8397b1dcdaf'
    """

    __slots__ = ("_state",)

    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_uint64(self):
        self._state = (self._state + self._GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound):
        """Unbiased draw from ``range(bound)`` by rejection.

        Each try reads the fewest ``k`` 64-bit outputs with
        ``2**(64k) >= bound``, high word first, so a bound up to ``2**64``
        draws as it always has, one output per try, and a larger one still
        accepts at least half of the tries.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        words = 1 if bound <= 1 << 64 else -(-(bound - 1).bit_length() // 64)
        span = 1 << 64 * words
        limit = span - span % bound
        while True:
            u = self.next_uint64()
            if words > 1:  # tested first, so a one-word try costs what it always did
                for _ in range(words - 1):
                    u = u << 64 | self.next_uint64()
            if u < limit:
                return u % bound

    def int_between(self, lo, hi):
        """Uniform integer in the closed interval ``[lo, hi]``."""
        if hi < lo:
            raise ValueError("empty interval")
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape and bounds for one random model.

    ``r`` vacuum columns and ``n`` coordinate columns; entries of the
    square block lie in ``[-entry_bound, entry_bound]`` and sampled columns
    in ``[-sample_bound, sample_bound]``.  ``pad_dependent_rows`` appends
    that many integer-combination rows.  The model may hold at most
    :data:`MAX_ENTRIES` entries, checked before anything is allocated.  The
    output is a function of this config alone.
    """

    r: int
    n: int
    seed: int = 0
    entry_bound: int = 5
    sample_bound: int = 5
    allow_zero_columns: bool = False
    pad_dependent_rows: int = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need at least one vacuum column")
        if self.n < 0:
            raise ValueError("negative coordinate count")
        if self.entry_bound < 1 or self.sample_bound < 1:
            raise ValueError("bounds must be at least 1")
        if self.pad_dependent_rows < 0:
            raise ValueError("negative padding count")
        entries = (self.r + self.pad_dependent_rows) * (self.r + self.n)
        if entries > MAX_ENTRIES:
            raise ValueError(f"(r + pad) * (r + n) = {entries} exceeds {MAX_ENTRIES} entries")


def random_lg_model(cfg):
    """Draw one charge matrix guaranteed to carry the constructional witness.

    Raises :class:`RejectionBudgetExceeded` when no admissible draw shows
    up within :data:`ATTEMPT_BUDGET` attempts, which happens when the
    negative cone meets the sampling box in too few lattice points.
    """
    rng = SplitMix64(cfg.seed)
    r, n = cfg.r, cfg.n
    eb, sb = cfg.entry_bound, cfg.sample_bound
    identity = [[int(a == b) for b in range(r)] for a in range(r)]
    for _ in range(ATTEMPT_BUDGET):
        block = [[rng.int_between(-eb, eb) for _ in range(r)] for _ in range(r)]
        t, p, basis = linalg._eliminate([x + e for x, e in zip(block, identity)], range(r))
        if None not in basis:
            break
    else:
        raise RejectionBudgetExceeded(ATTEMPT_BUDGET, "no nonsingular square block found")
    # p * R^-1, rows in any order: c is in the closed negative cone iff no entry of p R^-1 c fails
    scaled_inverse = [row[r:] for row in t]
    fails = phases._wrong_sign(p)
    cols = []
    for _ in range(n):
        for _ in range(ATTEMPT_BUDGET):
            c = [rng.int_between(-sb, sb) for _ in range(r)]
            if not cfg.allow_zero_columns and not any(c):
                continue
            if not any(map(fails, [sum(map(mul, row, c)) for row in scaled_inverse])):
                cols.append(c)
                break
        else:
            raise RejectionBudgetExceeded(ATTEMPT_BUDGET)
    rows = [block[a] + [c[a] for c in cols] for a in range(r)]
    for _ in range(cfg.pad_dependent_rows):
        coeffs = [rng.int_between(-3, 3) for _ in rows]
        rows.append([sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(r + n)])
    return IntMatrix(rows, ncols=r + n)


def witness_of_construction(q, cfg):
    """Re-derive and verify the built-in witness ``{0, ..., r-1}``."""
    cm = phases.make_charge_matrix(q)
    return phases.check_witness(cm, tuple(range(cfg.r)))
