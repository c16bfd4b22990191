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
block is a witness exactly when no entry ``x`` of ``T`` outside the chosen
columns has ``p * x > 0`` (one rule for the search, :func:`check_witness`
and the generator), and ``R^-1 Q = T / p`` is its row-reduced matrix.

The search (:func:`enumerate_phases`) runs on the Gale dual and tries no
column subsets.  Let the columns of an ``N x n`` matrix ``K`` span
``ker Q``; its rows ``g_1, ..., g_N`` are the Gale vectors.

Theorem.  ``C`` is a witness exactly when the Gale vectors of the other
columns are linearly independent and every ``g_i`` is a nonnegative
combination of them.  So a phase exists exactly when ``cone(g_1..g_N)`` is
simplicial, and the witnesses are the complements of the ways to take one
Gale vector from each extreme ray's class (the Gale vectors that are
positive multiples of one another).  A zero Gale vector, a coloop of
``Q``, is chosen in every witness.

Proof.  Let ``D`` be the complement of ``C`` and ``R = Q[:, C]``.  ``R``
is singular exactly when a nonzero ``x`` in ``ker Q`` has ``x_D = 0``,
that is exactly when ``K[D, :]`` is singular, so exactly when ``g_D`` is
dependent.  Otherwise change the basis of ``ker Q`` so that
``K[D, :] = I``: column ``k`` of ``K`` is then the kernel vector with
``x_D = e_k``, whose ``C`` part is ``-R^-1 q_(d_k)``.  So for ``j`` in
``C`` the coordinates of ``g_j`` in the basis ``g_D`` are
``-(R^-1 q_d)_j`` over ``d`` in ``D``, and they are all nonnegative exactly
when every ``q_d`` lies in the negative cone of ``R``.  A witness thus
makes ``cone(g_1..g_N) = cone(g_D)`` simplicial, with one Gale vector of
``g_D`` on each extreme ray; conversely, when the cone is simplicial, any
choice of one Gale vector per extreme ray is a basis that generates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import linalg
from .errors import DimensionMismatch, EmptyMatrix, NotNegativeCone, SingularChoice
from .linalg import IntMatrix, RatMatrix

__all__ = [
    "ChargeMatrix",
    "HerbstWitness",
    "make_charge_matrix",
    "candidate_columns",
    "check_witness",
    "enumerate_phases",
    "check_superpotential_invariance",
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
    def kernel(self):
        """Saturated integer kernel of ``matrix`` (see :func:`lgphase.linalg.integer_kernel`)."""
        return linalg.integer_kernel(self.matrix)

    @cached_property
    def _cone_solutions(self):
        """The latest cone-coordinate solve, keyed by ``(support, level)``; see :mod:`lgphase.cones`."""
        return {}


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
        return _complement(self.charge, self.chosen)


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
    so neither can appear in any witness: fewer than ``r`` candidates rule
    a phase out before any search.
    """
    cols = cm.reduced.columns()
    zero = (0,) * cm.rank
    counts = {}
    for c in cols:
        counts[c] = counts.get(c, 0) + 1
    return tuple(j for j, c in enumerate(cols) if c != zero and counts[c] == 1)


def _wrong_sign(p):
    """The Herbst sign rule on a tableau ``p * B^-1 * Q``: the predicate ``x -> p * x > 0``.

    ``B`` is a witness exactly when no entry off its columns satisfies it.
    """
    return (0).__lt__ if p > 0 else (0).__gt__


def check_witness(cm, chosen):
    """Verify one choice of columns and return the witness.

    ``chosen`` must list ``r`` distinct column indices.  Raises
    :class:`SingularChoice` when the block is singular and
    :class:`NotNegativeCone` (with the offending row and column, the first
    in column-then-row order) when some non-chosen column falls outside the
    negative cone of the block.

    One fraction-free elimination gives ``p * R^-1 * Q`` with ``p = +-det R``;
    its entries are integers, so the sign test (:func:`_wrong_sign`) and the
    row-reduced matrix ``entry / p`` are both read off it exactly.
    """
    idx = tuple(sorted(chosen))
    if len(idx) != cm.rank or len(set(idx)) != len(idx):
        raise ValueError(f"need {cm.rank} distinct column indices, got {chosen!r}")
    for j in idx:
        if not 0 <= j < cm.num_fields:
            raise ValueError(f"column index {j} out of range for {cm.num_fields} fields")
    t, p, basis = linalg._eliminate(cm.reduced.rows, idx)
    if None in basis:
        raise SingularChoice(f"columns {idx} are linearly dependent")
    t = [row for _, row in sorted(zip(basis, t))]
    rest = _complement(cm, idx)
    fails = _wrong_sign(p)
    for j in rest:
        for a, row in enumerate(t):
            if fails(row[j]):
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


def _positive_relation(t, p, basis, free):
    """A point ``x`` of ``ker Q`` with ``x >= 1`` off the coloops, on the columns ``free``.

    ``t == p * B^-1 * Q`` holds column ``basis[a]`` in row ``a``.  Returns
    ``x[free]`` scaled to integers, or ``None`` when no such point exists.
    Phase 1 of the simplex method on ``y = x - 1 >= 0``: the rows of ``t``
    that are not coloops (a coloop row holds ``p`` alone and forces
    ``x = 0``) read ``t[a] . y = -sum(t[a])``.  The basic solution of ``B``
    is feasible unless some ``y`` of ``B`` is negative; then one artificial
    ``x0``, entered in the most negative row, makes it feasible, and
    Bland's rule, which cannot cycle, drives ``x0`` down.  Every pivot is
    :func:`lgphase.linalg._exchange` on one tableau, objective row
    included, so all entries stay integers.
    """
    width = len(t[0]) if t else 0
    rows, held = [], []
    for row, b in zip(t, basis):
        if sum(map(bool, row)) > 1:
            rows.append(row + [0, -sum(row)])  # columns of Q, then x0, then the right side
            held.append(b)
    fails = _wrong_sign(p)
    late = [a for a, row in enumerate(rows) if fails(-row[-1])]
    if late:
        for a in late:
            rows[a][width] = -p
        rows.append([0] * width + [-p, 0])  # the objective x0
        a = max(late, key=lambda a: -p * rows[a][-1])
        p = linalg._exchange(rows, a, width, p)
        held[a] = width
        while True:
            fails = _wrong_sign(p)
            c = next((j for j, e in enumerate(rows[-1][:-1]) if fails(e)), None)
            if c is None:
                break
            a = None
            for i, b in enumerate(held):
                x = rows[i][c]
                if fails(x):
                    # the sign of (ratio of row i) - (ratio of row a)
                    d = 1 if a is None else rows[i][-1] * rows[a][c] - rows[a][-1] * x
                    if a is None or d < 0 or d == 0 and b < held[a]:
                        a = i
            p = linalg._exchange(rows, a, c, p)
            held[a] = c
        if rows[-1][-1]:
            return None
    y = {b: rows[a][-1] for a, b in enumerate(held)}
    return [abs(p + y.get(f, 0)) for f in free]


def _gale_search(cm):
    """Every witness, from ``n`` vertices of the Gale cone; see the module docstring.

    One tableau ``p * B^-1 * Q`` on the pivot columns gives the Gale
    vectors: free column ``free[k]`` gives ``e_k`` and the column held by
    row ``a`` gives ``-sign(p) * t[a][free]``, a positive multiple of its
    Gale vector in the basis where the free ones are the identity.  One LP
    (:func:`_positive_relation`) finds ``x`` in ``ker Q`` with ``x >= 1``
    off the coloops, whose free part ``psi`` gives ``s_i = psi . g_i``, a
    positive multiple of ``x_i``, on every nonzero ``g_i``; or it proves
    that the cone is not pointed, so no phase exists.  The points
    ``g_i / s_i`` lie on one hyperplane, and if a phase exists they span a
    simplex whose vertices are the extreme rays.

    Each scan then takes a linear function that vanishes on the vertices
    found so far, its largest value over the points, and the lex-max point
    where that value is taken: a vertex of a face, so a vertex, and
    independent of the earlier ones.  The function is row ``k`` of a second
    tableau, of the Gale vectors as columns, with the ``k`` vertices found
    pivoted into rows ``0..k-1``.  Its entry at the Gale vector ``e_k`` is
    the tableau's pivot, so the largest value is positive, and so is the
    next pivot.  Points are compared by integer cross-multiplication.

    After ``n`` scans the vertices are all the vertices if a phase exists,
    so one :func:`check_witness` on the complement of one per class
    decides; when it passes, every witness is the complement of one Gale
    vector from each class, and each is verified.
    """
    t, p, basis = linalg._eliminate(cm.reduced.rows, cm.pivot_columns)
    free = _complement(cm, basis)
    psi = _positive_relation(t, p, basis, free)
    if psi is None:
        return []
    gale = {f: tuple(int(k == i) for i in range(len(free))) for k, f in enumerate(free)}
    for row, b in zip(t, basis):
        gale[b] = tuple(-row[f] if p > 0 else row[f] for f in free)
    points = [i for i in range(cm.num_fields) if any(gale[i])]
    vecs = [gale[i] for i in points]
    s = [sum(map(int.__mul__, psi, g)) for g in vecs]
    scan, q, reps = [list(col) for col in zip(*vecs)], 1, []
    for k in range(len(scan)):
        m = _lex_max([(e, *g) for e, g in zip(scan[k], vecs)], s)
        q = linalg._exchange(scan, k, m, q)
        reps.append(m)
    classes = [
        [points[m]] + [points[j] for j, g in enumerate(vecs)
                       if j != m and all(x * s[m] == y * s[j] for x, y in zip(g, vecs[m]))]
        for m in reps
    ]
    combos = product(*classes)
    try:
        found = [check_witness(cm, _complement(cm, next(combos)))]
    except NotNegativeCone:
        return []
    return found + [check_witness(cm, _complement(cm, combo)) for combo in combos]


def _lex_max(keys, scales):
    """The index ``m`` of the lexicographically largest ``keys[m] / scales[m]``.

    The scales are positive, so two keys compare by cross-multiplication.
    """
    best = 0
    for m in range(1, len(keys)):
        for x, y in zip(keys[m], keys[best]):
            if x * scales[best] != y * scales[m]:
                if x * scales[best] > y * scales[m]:
                    best = m
                break
    return best


def _complement(cm, cols):
    """The columns of ``cm`` not in ``cols``, ascending, as a tuple."""
    cols = set(cols)
    return tuple(j for j in range(cm.num_fields) if j not in cols)


def enumerate_phases(cm):
    """All witnesses, as a list ordered by lexicographic chosen set.

    The witnesses are read off the Gale vectors of ``Q`` (see
    :func:`_gale_search` and the theorem in the module docstring): ``Q`` has
    a phase exactly when the cone of its Gale vectors is simplicial, and the
    witnesses are the complements of one Gale vector from each extreme
    ray's class.  Fewer than ``r`` :func:`candidate_columns` already rule a
    phase out.  The search costs one LP and ``n`` scans, each one pivot,
    instead of one pivot for each of the ``C(N, r)`` column subsets.
    """
    if len(candidate_columns(cm)) < cm.rank:
        return []
    found = _gale_search(cm)
    found.sort(key=lambda w: w.chosen)
    return found


def check_superpotential_invariance(cm, monomials):
    """True when every monomial is gauge invariant: ``Q * m == 0``.

    Each monomial is a length-``N`` exponent vector with nonnegative
    entries; the check uses the original charges, not the reduced basis.
    """
    rows = cm.matrix.rows
    for m in monomials:
        vec = tuple(linalg._check_int(e) for e in m)
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

