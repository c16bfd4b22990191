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

Neither step searches blindly, and both run in integer row arithmetic.
The Hermite basis ``H`` of ``m0 * L`` is upper triangular, so the least
``k`` with ``k * e_j`` in ``m0 * L`` is ``H[j][j]`` times the order of the
tail of row ``j`` modulo the rows below it, read one column at a time.
The permutation search skips arrangements that differ by a lattice
automorphism: coordinates whose transposition fixes the lattice form
blocks, equal blocks that swap wholesale form groups, and only distinct
sequences of block labels up to relabeling within a group are tried, one
at a time, in memory linear in ``n``.  A swap is tested on the generators
of the action alone.  The form itself is the one a search over every
permutation would return.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _axis_order(rows, j):
    """Least ``k > 0`` with ``k * e_j`` in the row lattice of an upper-triangular basis.

    ``rows`` is full rank with positive diagonal.  A lattice vector that
    vanishes before column ``j`` is ``c * row_j`` plus rows past ``j``, so
    ``k = c * rows[j][j]`` with ``c`` the order of the tail of row ``j``
    modulo the rows past it.  That order is read one column ``i`` at a
    time: the running vector's entry ``x`` there becomes a multiple of the
    pivot ``p`` exactly when it is scaled by a multiple of
    ``p / gcd(p, x)``, and row ``i`` then clears it.
    """
    k = rows[j][j]
    v = rows[j][j + 1:]
    for i in range(j + 1, len(rows)):
        row = rows[i]
        p = row[i]
        t = p // gcd(p, v[0])
        q = v[0] * t // p
        v = [t * a - q * b for a, b in zip(v[1:], row[i + 1:])]
        k *= t
    return k


def _swap_fixes(hnf, gens, xs, ys):
    """Whether swapping coordinate ``xs[k]`` with ``ys[k]`` for every ``k`` fixes the lattice.

    The full-rank lattice is spanned by ``gens`` and ``m * Z^n``, which
    every coordinate permutation fixes, so the swapped lattice lies in it
    exactly when the swapped generators do; it has the same covolume, so
    it is then equal.
    """
    for v in gens:
        w = list(v)
        for i, j in zip(xs, ys):
            w[i], w[j] = v[j], v[i]
        if tuple(w) != v and not _hnf_contains(hnf, w):
            return False
    return True


def _arrangements(base, gens, classes):
    """Column orders of the arrangements that can give distinct Hermite forms, one at a time.

    Coordinates of one class whose transposition fixes the lattice form
    blocks (the relation is an equivalence: ``(i k) = (i j)(j k)(i j)``).
    Permuting inside a block is an automorphism, so only the sequence of
    block labels matters, and each block fills its slots with its members
    in increasing order.  Blocks of equal size whose wholesale swap
    (``k``-th member with ``k``-th member) fixes the lattice form groups;
    swapping two labels of a group is such an automorphism, so a block is
    placed only after the block before it in its group.  The walk tries
    labels in increasing order, position by position and class after
    class, and holds only the current sequence, in lists rather than on
    the call stack.
    """
    blocks = []
    after = []  # the block before each block in its group, or -1
    slots = []  # the labels of each position's class
    for cls in classes:
        first = len(blocks)
        for j in cls:
            for block in blocks[first:]:
                if _swap_fixes(base, gens, block[:1], [j]):
                    block.append(j)
                    break
            else:
                blocks.append([j])
        groups = []
        for b in range(first, len(blocks)):
            for group in groups:
                lead = blocks[group[0]]
                if len(lead) == len(blocks[b]) and _swap_fixes(base, gens, lead, blocks[b]):
                    after.append(group[-1])
                    group.append(b)
                    break
            else:
                groups.append([b])
                after.append(-1)
        slots += [range(first, len(blocks))] * len(cls)
    used = [0] * len(blocks)
    cols = [0] * len(slots)
    slots.append(())  # nothing to try past the last position
    placed = []  # the block at each filled position
    tries = [iter(slots[0])]  # the labels left to try at each open position
    while tries:
        for b in tries[-1]:
            if used[b] < len(blocks[b]) and (after[b] < 0 or used[after[b]]):
                break
        else:
            tries.pop()
            if placed:
                used[placed.pop()] -= 1
            continue
        cols[len(placed)] = blocks[b][used[b]]
        used[b] += 1
        placed.append(b)
        if len(placed) == len(cols):
            yield tuple(cols)
        tries.append(iter(slots[len(placed)]))


def _rescaled_lattice(rows, orders, n):
    """``(m, base, gens)`` of the rescaled action; steps 1 and 2 of :func:`canonical_torus_action`.

    ``base`` is the Hermite basis of ``m`` times the rescaled lattice and
    ``gens`` are the rescaled generators, reduced mod ``m`` and nonzero;
    ``base`` is spanned by ``gens`` and ``m * Z^n``.
    """
    m0 = lcm(*orders)
    gens = [tuple(m0 // d * e for e in row) for row, d in zip(rows, orders)]
    eye = [tuple(m0 if j == i else 0 for j in range(n)) for i in range(n)]
    h0 = linalg.hermite_normal_form(IntMatrix(gens + eye, ncols=n)).rows
    scale = [m0 // _axis_order(h0, j) for j in range(n)]
    h1 = linalg.hermite_normal_form(
        IntMatrix(tuple(tuple(c * e for c, e in zip(scale, row)) for row in h0), ncols=n)
    )
    g = gcd(m0, *(e for row in h1.rows for e in row))
    m = m0 // g
    base = IntMatrix(tuple(tuple(e // g for e in row) for row in h1.rows), ncols=n)
    gens = [tuple(c * e // g % m for c, e in zip(scale, row)) for row in gens]
    return m, base, [v for v in gens if any(v)]


def canonical_torus_action(rows, orders, num_coords):
    """Canonical integer lattice of a diagonal finite-group action on ``C^n``.

    The subgroup ``L/Z^n`` of the torus generated by ``row_a / d_a`` is
    normalized in three steps:

    1. Make every coordinate axis primitive in ``L`` by rescaling that
       coordinate.  With ``m0 = lcm(d_a)``, the Hermite basis ``H`` of
       ``m0 * L`` is upper triangular, and the least ``k_j`` with
       ``k_j * e_j`` in ``m0 * L`` is read off rows ``j..n-1`` of ``H`` in
       integers (:func:`_axis_order`).  ``k_j`` divides ``m0``, coordinate
       ``j`` is scaled by ``m0 / k_j``, and the Hermite form of ``H`` with
       its columns so scaled is ``m0`` times the rescaled lattice.
    2. Clear denominators with the exponent ``m`` of the rescaled lattice.
    3. Take the lexicographically minimal Hermite form over coordinate
       permutations.  Coordinates can only trade places when their
       projections to the torus have equal order, so the search runs
       inside those classes.  Within a class, coordinates whose swap fixes
       the lattice are interchangeable, and only the distinct arrangements
       of those blocks are tried, up to wholesale swaps of equal blocks
       that fix the lattice (automorphism pruning in the sense of McKay &
       Piperno, 2014).  A swap is tested on the ``r`` rescaled generators
       alone (:func:`_swap_fixes`), and the arrangements come one at a
       time (:func:`_arrangements`), in memory linear in ``n``.  The
       minimum is the same as over every permutation; a class with no
       such swaps still costs ``k!`` forms.
    """
    rows = [tuple(map(linalg._check_int, row)) for row in rows]
    orders = [linalg._check_int(d) for d in orders]
    n = linalg._check_int(num_coords)
    if any(d <= 0 for d in orders) or len(rows) != len(orders):
        raise ValueError("need one positive order per exponent row")
    if any(len(row) != n for row in rows):
        raise ValueError(f"exponent rows must have length {n}")
    if n == 0:
        return IntMatrix((), ncols=0)
    m, base, gens = _rescaled_lattice(rows, orders, n)
    if m == 1:
        return IntMatrix.identity(n)
    # projection order of each coordinate; only equal orders may swap
    classes = {}
    for j in range(n):
        classes.setdefault(m // gcd(m, *(v[j] for v in gens)), []).append(j)
    identity = tuple(range(n))  # base is already this arrangement's Hermite form
    best = min(
        base.rows if cols == identity else linalg.hermite_normal_form(base.select_columns(cols)).rows
        for cols in _arrangements(base, gens, [classes[o] for o in sorted(classes, reverse=True)])
    )
    return IntMatrix(best, ncols=n)
