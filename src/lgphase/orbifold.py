"""Orbifold group of a Landau-Ginzburg phase and canonical forms of its action.

For a witness with square block ``R`` the unbroken gauge symmetry is the
finite abelian group ``Gamma = coker(R^T)``.  A Smith decomposition
``D = U R V`` presents it as ``Z_{d_1} x ... x Z_{d_r}``; the generator of
the ``a``-th factor multiplies Landau-Ginzburg coordinate ``j`` by the
root of unity ``zeta_{d_a}`` raised to the exponent ``(U S)_{a j}``.

The image of ``Gamma`` in the diagonal torus is the lattice
``L = Z^n + sum_a Z * row_a / d_a``.  ``canonical_torus_action`` (stored as
``OrbifoldData.canonical_lattice``) canonicalizes the quotient presentation
up to monomial isomorphism: coordinatewise ray rescaling (replace a
coordinate by the power that makes its axis primitive in ``L``) followed by
the lexicographically minimal Hermite form over coordinate permutations.
Two phases of one model always agree under this form; the image subgroups
alone may differ, for instance a Z8 acting with weights (1,2,2,2) presents
the same quotient as a Z4 with weights (1,1,1,1) after squaring the first
coordinate.

Neither step searches blindly.  Every axis scale is read off one exact
inverse: with ``H`` the Hermite basis of ``m0 * L``, ``k * e_j`` lies in
``m0 * L`` exactly when ``k`` times row ``j`` of ``H^-1`` is integral,
because ``x`` lies in it exactly when ``x * H^-1`` is.  The permutation
search skips arrangements that differ by a lattice automorphism:
coordinates whose transposition fixes the lattice form blocks, and only
distinct sequences of block labels are tried.  The form itself is the one
a search over every permutation would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm, prod

from . import linalg
from .errors import DimensionMismatch, RankDeficientGaugeGroup
from .linalg import IntMatrix

__all__ = [
    "OrbifoldData",
    "orbifold_group",
    "effective_factors",
    "actions_equivalent",
    "canonical_torus_action",
]


@dataclass(frozen=True)
class OrbifoldData:
    """Finite abelian quotient data for one phase.

    ``smith`` is the decomposition ``D = U R V`` of the vev block; row
    ``a`` of ``action_exponents`` is reduced into ``[0, d_a)``;
    ``canonical_lattice`` is the output of :func:`canonical_torus_action`.
    """

    smith: linalg.SmithDecomposition
    action_exponents: IntMatrix
    canonical_lattice: IntMatrix

    @property
    def invariant_factors(self):
        """The Smith factors ``d_1 | d_2 | ...``, ascending."""
        return self.smith.diagonal

    @property
    def group_order(self):
        return prod(self.invariant_factors)

    @property
    def num_coords(self):
        return self.action_exponents.ncols


def orbifold_group(w):
    """Orbifold data of a witness.  Needs a full-rank charge matrix.

    Raises :class:`RankDeficientGaugeGroup` when ``rank Q < rho``: a
    rank-deficient gauge action has no finite unbroken subgroup in this
    presentation.
    """
    cm = w.charge
    if cm.rank != cm.rho:
        raise RankDeficientGaugeGroup(
            f"rank {cm.rank} < {cm.rho} gauge factors; the orbifold group is undefined"
        )
    snf = linalg.smith_normal_form(w.vev_block)
    factors = snf.diagonal
    raw = snf.u * w.coord_block
    exps = IntMatrix(
        tuple(tuple(e % d for e in row) for row, d in zip(raw.rows, factors)),
        ncols=raw.ncols,
    )
    lattice = canonical_torus_action(exps.rows, factors, exps.ncols)
    return OrbifoldData(smith=snf, action_exponents=exps, canonical_lattice=lattice)


def effective_factors(od):
    """Invariant factors with the trivial ones removed."""
    return tuple(d for d in od.invariant_factors if d != 1)


def actions_equivalent(a, b):
    """Whether two orbifold actions present the same quotient of ``C^n``.

    Both actions must live on the same number of coordinates; otherwise
    :class:`DimensionMismatch` is raised.
    """
    if a.num_coords != b.num_coords:
        raise DimensionMismatch(
            f"actions on {a.num_coords} and {b.num_coords} coordinates are incomparable"
        )
    return a.canonical_lattice == b.canonical_lattice


# ---------------------------------------------------------------------------
# lattice encodings


def _hnf_contains(hnf, vec):
    """Membership of an integer vector in the row lattice of a full-rank HNF."""
    v = list(vec)
    for row in hnf.rows:
        p = next(j for j, e in enumerate(row) if e)
        if v[p] % row[p]:
            return False
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _swap_fixes(hnf, i, j):
    """Whether swapping coordinates ``i`` and ``j`` maps the full-rank lattice to itself.

    The swapped lattice has the same covolume, so containing the swapped
    basis rows already makes it equal.
    """
    for row in hnf.rows:
        v = list(row)
        v[i], v[j] = v[j], v[i]
        if not _hnf_contains(hnf, v):
            return False
    return True


def _multiset_permutations(items):
    """Distinct orderings of ``items`` in lexicographic order, by next-permutation."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        k = len(a) - 1
        while a[k] <= a[i]:
            k -= 1
        a[i], a[k] = a[k], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def _class_arrangements(base, cls):
    """Orderings of one equal-order class that can give distinct Hermite forms.

    Coordinates whose transposition fixes the lattice form blocks (the
    relation is an equivalence: ``(i k) = (i j)(j k)(i j)``).  Permuting
    inside a block is an automorphism, so only the sequence of block labels
    matters; each distinct sequence is realized once, filling every block's
    slots with its members in increasing order.
    """
    blocks = []
    labels = []
    for j in cls:
        for b, block in enumerate(blocks):
            if _swap_fixes(base, block[0], j):
                block.append(j)
                labels.append(b)
                break
        else:
            labels.append(len(blocks))
            blocks.append([j])
    out = []
    for seq in _multiset_permutations(labels):
        members = [iter(block) for block in blocks]
        out.append(tuple(next(members[b]) for b in seq))
    return out


def canonical_torus_action(rows, orders, num_coords):
    """Canonical integer lattice of a diagonal finite-group action on ``C^n``.

    The subgroup ``L/Z^n`` of the torus generated by ``row_a / d_a`` is
    normalized in three steps:

    1. Make every coordinate axis primitive in ``L`` by rescaling that
       coordinate.  With ``m0 = lcm(d_a)`` and ``H`` the Hermite basis of
       ``m0 * L``, ``x`` lies in ``m0 * L`` exactly when ``x * H^-1`` is
       integral, so the least ``k_j`` with ``k_j * e_j`` in it is the lcm
       of the denominators of row ``j`` of ``H^-1``.  ``k_j`` divides
       ``m0``, coordinate ``j`` is scaled by ``m0 / k_j``, and the Hermite
       form of ``H`` with its columns so scaled is ``m0`` times the
       rescaled lattice.
    2. Clear denominators with the exponent ``m`` of the rescaled lattice.
    3. Take the lexicographically minimal Hermite form over coordinate
       permutations.  Coordinates can only trade places when their
       projections to the torus have equal order, so the search runs
       inside those classes.  Within a class, coordinates whose swap fixes
       the lattice are interchangeable, and only the distinct arrangements
       of those blocks are tried (automorphism pruning in the sense of
       McKay & Piperno, 2014).  The minimum is the same as over every
       permutation; a class with no such swaps still costs ``k!`` forms.
    """
    rows = [tuple(linalg._check_int(e) for e in row) for row in rows]
    orders = [linalg._check_int(d) for d in orders]
    n = linalg._check_int(num_coords)
    if any(d <= 0 for d in orders) or len(rows) != len(orders):
        raise ValueError("need one positive order per exponent row")
    if any(len(row) != n for row in rows):
        raise ValueError(f"exponent rows must have length {n}")
    if n == 0:
        return IntMatrix((), ncols=0)
    m0 = lcm(*orders)
    if m0 == 1:
        return IntMatrix.identity(n)
    gens = [tuple(m0 // d * e for e in row) for row, d in zip(rows, orders)]
    gens += [tuple(m0 if j == i else 0 for j in range(n)) for i in range(n)]
    h0 = linalg.hermite_normal_form(IntMatrix(gens, ncols=n))
    # k * e_j lies in m0 * L exactly when k * (row j of h0^-1) is integral
    inv = linalg.invert_rational(h0)
    scale = [m0 // lcm(*(e.denominator for e in row)) for row in inv.rows]
    h1 = linalg.hermite_normal_form(
        IntMatrix(tuple(tuple(c * e for c, e in zip(scale, row)) for row in h0.rows), ncols=n)
    )
    g = m0
    for row in h1.rows:
        g = gcd(g, *row)
    m = m0 // g
    base = IntMatrix(tuple(tuple(e // g for e in row) for row in h1.rows), ncols=n)
    if m == 1:
        return IntMatrix.identity(n)
    # projection order of each coordinate; only equal orders may swap
    proj = []
    for j in range(n):
        cg = 0
        for row in base.rows:
            cg = gcd(cg, row[j])
        proj.append(m // gcd(m, cg))
    classes = {}
    for j in range(n):
        classes.setdefault(proj[j], []).append(j)
    ordered_classes = [classes[o] for o in sorted(classes, reverse=True)]
    arrangements = product(*(_class_arrangements(base, c) for c in ordered_classes))
    best = min(
        linalg.hermite_normal_form(base.select_columns([j for group in arr for j in group])).rows
        for arr in arrangements
    )
    return IntMatrix(best, ncols=n)
