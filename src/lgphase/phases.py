"""The Herbst criterion for affine Landau-Ginzburg phases.

A gauged linear sigma model with gauge group ``(C*)^rho`` acting on ``C^N``
is described by its integer charge matrix ``Q`` (``rho x N``).  The model
has an affine Landau-Ginzburg phase exactly when some ``r`` linearly
independent columns of ``Q`` (``r = rank Q``) contain every other column in
their negative real cone.  Such a choice is a witness: the chosen fields
take vacuum expectation values, the remaining ``n = N - r`` fields become
the Landau-Ginzburg coordinates of an orbifold of ``C^n``.

All arithmetic is exact.  The criterion is evaluated on the canonical
saturated row basis of ``Q`` (see :func:`lgphase.linalg.row_space_reduce`),
which leaves the answer, the row-reduced matrix, and every downstream
invariant unchanged while making rank-deficient input well defined.

For a block ``R`` of ``r`` columns, fraction-free Gauss-Jordan elimination
gives the integer tableau ``T = p * R^-1 * Q`` with ``p = +-det R``.  The
block is a witness exactly when ``p * T`` is ``<= 0`` outside the chosen
columns, and ``R^-1 Q = T / p`` is its row-reduced matrix.  The search
moves this one tableau from subset to subset by single-column exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import DimensionMismatch, EmptyMatrix, InternalCheckFailed, NotNegativeCone, SingularChoice
from .linalg import IntMatrix, RatMatrix

__all__ = [
    "ChargeMatrix",
    "HerbstWitness",
    "make_charge_matrix",
    "candidate_columns",
    "check_witness",
    "enumerate_phases",
    "check_superpotential_invariance",
    "vev_split",
]


@dataclass(frozen=True)
class ChargeMatrix:
    """A validated charge matrix together with its saturated row basis.

    ``matrix`` is the original ``rho x N`` input; ``reduced`` is the
    ``r x N`` Hermite-canonical basis of the saturated row lattice, on which
    the criterion runs.
    """

    matrix: IntMatrix
    rho: int
    num_fields: int
    rank: int
    reduced: IntMatrix

    @cached_property
    def pivot_columns(self):
        """First nonzero column of each reduced row; a lex-first independent set."""
        pivots = []
        for row in self.reduced.rows:
            pivots.append(next(j for j, e in enumerate(row) if e))
        return tuple(pivots)

    @cached_property
    def basis_map(self):
        """Rational ``rho x r`` matrix ``B`` with ``B * reduced == matrix``."""
        piv = self.pivot_columns
        p_inv = linalg.invert_rational(self.reduced.select_columns(piv))
        b = self.matrix.select_columns(piv).to_rational() * p_inv
        if b * self.reduced.to_rational() != self.matrix.to_rational():
            raise InternalCheckFailed("basis map does not carry the reduced rows onto the input")
        return b


@dataclass(frozen=True)
class HerbstWitness:
    """A verified witness: an admissible choice of vacuum columns.

    ``chosen`` indexes the ``r`` columns whose fields take vacuum values;
    ``vev_block`` is the square block they form inside ``charge.reduced``;
    ``coord_block`` holds the remaining columns (the Landau-Ginzburg
    coordinates, ascending); ``row_reduced`` is the rational matrix with an
    identity in the chosen columns and nonpositive entries everywhere else.
    """

    charge: ChargeMatrix
    chosen: tuple
    vev_block: IntMatrix
    coord_block: IntMatrix
    row_reduced: RatMatrix

    @property
    def coord_columns(self):
        """Indices of the Landau-Ginzburg coordinate fields, ascending."""
        chosen = set(self.chosen)
        return tuple(j for j in range(self.charge.num_fields) if j not in chosen)


def make_charge_matrix(q):
    """Validate a raw integer matrix and package it as a :class:`ChargeMatrix`.

    Raises :class:`EmptyMatrix` unless ``q`` has at least one row and one
    column.  The zero matrix is legal and has rank 0.
    """
    if not isinstance(q, IntMatrix):
        q = IntMatrix(q)
    if q.nrows == 0 or q.ncols == 0:
        raise EmptyMatrix(f"charge matrix must have at least one row and one column, got {q.shape}")
    reduced = linalg.row_space_reduce(q)
    return ChargeMatrix(
        matrix=q,
        rho=q.nrows,
        num_fields=q.ncols,
        rank=reduced.nrows,
        reduced=reduced,
    )


def candidate_columns(cm):
    """Columns that could possibly be chosen: nonzero and unrepeated.

    A zero column makes the chosen block singular and a repeated column has
    reduced coordinates ``e_i`` relative to its twin, which is not ``<= 0``,
    so neither can appear in any witness.  Filtering them first shrinks the
    subset enumeration without changing its result.
    """
    cols = cm.reduced.columns()
    zero = (0,) * cm.rank
    counts = {}
    for c in cols:
        counts[c] = counts.get(c, 0) + 1
    return tuple(j for j, c in enumerate(cols) if c != zero and counts[c] == 1)


def check_witness(cm, chosen):
    """Verify one choice of columns and return the witness.

    ``chosen`` must list ``r`` distinct column indices.  Raises
    :class:`SingularChoice` when the block is singular and
    :class:`NotNegativeCone` (with the offending row and column, the first
    in column-then-row order) when some non-chosen column falls outside the
    negative cone of the block.

    One fraction-free elimination gives ``p * R^-1 * Q`` with ``p = +-det R``;
    its entries are integers, so the sign test ``p * entry <= 0`` and the
    row-reduced matrix ``entry / p`` are both read off it exactly.
    """
    idx = tuple(sorted(chosen))
    if len(idx) != cm.rank or len(set(idx)) != len(idx):
        raise ValueError(f"need {cm.rank} distinct column indices, got {chosen!r}")
    for j in idx:
        if not 0 <= j < cm.num_fields:
            raise ValueError(f"column index {j} out of range for {cm.num_fields} fields")
    p, t = linalg._fraction_free_solve(cm.reduced.rows, idx)
    if p == 0:
        raise SingularChoice(f"columns {idx} are linearly dependent")
    rest = tuple(j for j in range(cm.num_fields) if j not in set(idx))
    for j in rest:
        for a, row in enumerate(t):
            if row[j] * p > 0:
                raise NotNegativeCone(a, j)
    row_reduced = RatMatrix(
        tuple(tuple(Fraction(x, p) for x in row) for row in t), ncols=cm.num_fields
    )
    return HerbstWitness(
        charge=cm,
        chosen=idx,
        vev_block=cm.reduced.select_columns(idx),
        coord_block=cm.reduced.select_columns(rest),
        row_reduced=row_reduced,
    )


def _revolving_door(n, t):
    """Every ``t``-subset of ``range(n)`` as an ascending tuple, each one
    exchange away from the last.

    Knuth's Algorithm R (TAOCP 7.2.1.3), generated lazily.

    >>> list(_revolving_door(4, 2))
    [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]
    """
    if t > n:
        return
    c = [*range(t), n]  # c[t] is a sentinel
    yield tuple(c[:t])
    if t == 0:
        return
    while True:
        if t % 2 and c[0] + 1 < c[1]:
            c[0] += 1
        elif t % 2 == 0 and c[0] > 0:
            c[0] -= 1
        else:
            k, decrease = 1, t % 2 == 1
            while k < t:
                if decrease and c[k] > k:  # here c[k] == c[k - 1] + 1
                    c[k - 1], c[k] = k - 1, c[k - 1]
                    break
                if not decrease and c[k] + 1 < c[k + 1]:  # here c[k - 1] == k - 1
                    c[k - 1], c[k] = c[k], c[k] + 1
                    break
                k, decrease = k + 1, not decrease
            else:
                return
        yield tuple(c[:t])


def _inside_negative_cone(t, p):
    """True when the tableau ``t == p * B^-1 * Q`` is ``<= 0`` off its basis.

    Row ``a`` holds ``p`` in its own basis column and ``0`` in the others,
    so it passes exactly when that is its only entry of the sign of ``p``.
    """
    same_sign = (0).__lt__ if p > 0 else (0).__gt__
    return all(sum(map(same_sign, row)) == 1 for row in t)


def enumerate_phases(cm, prune=True):
    """All witnesses, as a list ordered by lexicographic chosen set.

    With ``prune`` (the default) only subsets of :func:`candidate_columns`
    are tried; without it every ``r``-subset of columns is tested.  The two
    settings return identical lists.

    The subsets are walked in revolving-door order, so each differs from
    the last by one column and the integer tableau ``p * B^-1 * Q`` of the
    previous block ``B`` needs one exact pivot, in the row of the leaving
    column.  A zero pivot entry is ``+-det`` of the new block: that subset
    is singular and skipped, the tableau stays on the last nonsingular
    block, and the next subset is reached from there by one pivot per
    column that differs.  Only the first block is factorized from scratch.
    Every subset that passes is verified again by :func:`check_witness`.
    """
    pool = candidate_columns(cm) if prune else tuple(range(cm.num_fields))
    t, p, basis = [list(row) for row in cm.reduced.rows], 1, [None] * cm.rank
    found = []
    for subset in _revolving_door(len(pool), cm.rank):
        cols = [pool[k] for k in subset]
        keep, held = set(cols), set(basis)
        leaving = [a for a, c in enumerate(basis) if c not in keep]
        p, ok = linalg._pivot_in(t, p, basis, [c for c in cols if c not in held], leaving)
        if ok and _inside_negative_cone(t, p):
            found.append(check_witness(cm, basis))
    found.sort(key=lambda w: w.chosen)
    return found


def check_superpotential_invariance(cm, monomials):
    """True when every monomial is gauge invariant: ``Q * m == 0``.

    Each monomial is a length-``N`` exponent vector with nonnegative
    entries; the check uses the original charges, not the reduced basis.
    """
    rows = cm.matrix.rows
    for m in monomials:
        vec = tuple(int(e) for e in m)
        if len(vec) != cm.num_fields:
            raise DimensionMismatch(
                f"monomial length {len(vec)} does not match {cm.num_fields} fields"
            )
        if any(e < 0 for e in vec):
            raise ValueError(f"monomial has a negative exponent: {vec}")
        for row in rows:
            if sum(a * b for a, b in zip(row, vec)) != 0:
                return False
    return True


def vev_split(w):
    """Partition of the field indices into (vacuum fields, coordinate fields)."""
    return (w.chosen, w.coord_columns)
