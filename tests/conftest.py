"""Shared helpers for the test suite.

The brute-force oracles here deliberately avoid the package's own Smith and
Hermite code paths: the cokernel oracle runs on a local fraction inverse
and set closure, the determinant oracle and the Herbst sign-test oracles
(``cramer_check``, ``oracle_phases``) on permutation expansion, the
linear-system oracle and ``fraction_rank`` on a local ``Fraction``
Gauss-Jordan, so agreement is a genuine cross-check rather than a
tautology.  The lattice oracles ``smith_integer_kernel`` and
``smith_row_space_reduce`` do use the package's Smith and general Hermite
forms: they are the route the package took before its lattice pass ran on
the fraction-free tableau, a second algorithm that shares no code with
that pass; ``smith_factors`` reads the invariant factors of any matrix off
the same general Smith form.  ``torus_subgroup_lattice``
is no oracle but an encoding of torus subgroups, built on the package's
Hermite form, that the orbifold tests compare actions with.
``brute_canonical_torus_action`` finds the axis scales by a divisor scan
(``axis_order_by_divisors``) and tries every permutation inside each
class; it shares only the general Hermite form with
``canonical_torus_action``.  ``swap_fixes_all_rows`` tests a transposition
on every basis row, the oracle for the generator-only test.
``subset_walk`` is the oracle of the Gale search: it tests every
``r``-subset of columns in revolving-door order and shares only the pivot
step ``linalg._exchange``, the sign rule ``phases._wrong_sign`` and
``phases.check_witness`` with it, each called through its module so that
a test can count the calls.  ``lossless_digits`` lifts the digit limit
for reading long output back.
"""

import contextlib
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

from lgphase import IntMatrix, RatMatrix, candidate_columns, hermite_normal_form, linalg, phases
from lgphase.linalg import _smith_general


def rand_matrix(rng, nrows, ncols, bound):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


def det_permutation_expansion(m):
    """Leibniz-formula determinant, independent of elimination code."""
    n = m.nrows
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = 1
        for i in range(n):
            term *= m[i, perm[i]]
        total += -term if inv % 2 else term
    return total


def det_rows(rows):
    """Leibniz determinant of a square matrix given as a list of rows."""
    return det_permutation_expansion(IntMatrix(rows, ncols=len(rows)))


def cramer_positive_row(block_rows, det, col):
    """First ``a`` with ``(R^-1 col)_a > 0`` by Cramer's rule, else ``None``.

    ``det`` is ``det R``.  The sign of ``(R^-1 col)_a`` is that of
    ``det(R with column a replaced by col) * det R``, so ``None`` means
    ``col`` lies in the closed negative cone of the columns of ``R``.  Each
    determinant is a Leibniz expansion, independent of the package's
    elimination code.
    """
    for a in range(len(block_rows)):
        patched = [row[:a] + [col[i]] + row[a + 1:] for i, row in enumerate(block_rows)]
        if det_rows(patched) * det > 0:
            return a
    return None


def cramer_check(cm, chosen):
    """Oracle for :func:`check_witness` by Cramer signs and a Fraction inverse.

    Returns ``("singular",)``, ``("reject", a, j)`` for the first positive
    entry in column-then-row order, or ``("witness", row_reduced)``.
    """
    idx = tuple(sorted(chosen))
    r, n = cm.rank, cm.num_fields
    cols = cm.reduced.columns()
    block = [[cols[j][a] for j in idx] for a in range(r)]
    det = det_rows(block)
    if det == 0:
        return ("singular",)
    for j in range(n):
        if j not in idx:
            a = cramer_positive_row(block, det, list(cols[j]))
            if a is not None:
                return ("reject", a, j)
    inv = fraction_inverse(block)
    reduced = [[sum(inv[a][k] * cols[j][k] for k in range(r)) for j in range(n)] for a in range(r)]
    return ("witness", RatMatrix(reduced, ncols=n))


def oracle_phases(cm, prune):
    """Every ``(chosen, row_reduced)`` that :func:`cramer_check` accepts, lexicographically."""
    pool = candidate_columns(cm) if prune else range(cm.num_fields)
    found = []
    for combo in combinations(pool, cm.rank):
        verdict = cramer_check(cm, combo)
        if verdict[0] == "witness":
            found.append((combo, verdict[1]))
    return found


def revolving_door(n, t):
    """Every ``t``-subset of ``range(n)`` as an ascending tuple, each one
    exchange away from the last.

    Knuth's Algorithm R (TAOCP 7.2.1.3), generated lazily.
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


def _pivot_in(t, p, basis, cols, free):
    """Exchange the columns ``cols`` into the tableau ``t`` (pivot ``p``), in place.

    ``basis[a]`` names the column held by row ``a`` (``None`` for a unit
    vector that no column has replaced yet).  Each column in turn is
    pivoted into the first row of ``free`` with a nonzero entry in it, and
    that row leaves ``free``.  Returns ``(pivot, True)``, or
    ``(pivot, False)`` as soon as a column finds no such row: the target
    block is then singular, and ``t``, ``basis`` and the pivot describe the
    nonsingular block reached so far.
    """
    free = list(free)
    for c in cols:
        a = next((i for i in free if t[i][c]), None)
        if a is None:
            return p, False
        free.remove(a)
        p = linalg._exchange(t, a, c, p)
        basis[a] = c
    return p, True


def _inside_negative_cone(t, p):
    """True when the tableau ``t == p * B^-1 * Q`` passes ``phases._wrong_sign`` off its basis.

    Row ``a`` holds ``p`` in its own basis column and ``0`` in the others,
    so it passes exactly when that is its only entry that fails.
    """
    fails = phases._wrong_sign(p)
    return all(sum(map(fails, row)) == 1 for row in t)


def subset_walk(cm):
    """Every witness among all ``r``-subsets of columns, by the revolving-door walk.

    Each subset differs from the last by one column, so the integer tableau
    ``p * B^-1 * Q`` of the previous block ``B`` needs one exact pivot, in
    the row of the leaving column.  A zero pivot entry is ``+-det`` of the
    new block: that subset is singular and skipped, the tableau stays on
    the last nonsingular block, and the next subset is reached from there
    by one pivot per column that differs.  Only the first block is
    factorized from scratch.  Every subset that passes is verified again
    by ``phases.check_witness``.  Returns the witnesses ordered by
    lexicographic chosen set, as :func:`lgphase.enumerate_phases` does.
    """
    t, p, basis = [list(row) for row in cm.reduced.rows], 1, [None] * cm.rank
    found = []
    for cols in revolving_door(cm.num_fields, cm.rank):
        keep, held = set(cols), set(basis)
        leaving = [a for a, c in enumerate(basis) if c not in keep]
        p, ok = _pivot_in(t, p, basis, [c for c in cols if c not in held], leaving)
        if ok and _inside_negative_cone(t, p):
            found.append(phases.check_witness(cm, basis))
    found.sort(key=lambda w: w.chosen)
    return found


@contextlib.contextmanager
def lossless_digits():
    """Lift the interpreter's ``int`` <-> ``str`` digit limit, restoring it on exit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def random_nonsingular(rng, n, bound):
    while True:
        m = rand_matrix(rng, n, n, bound)
        det = det_permutation_expansion(m) if n <= 4 else _det_fraction(m)
        if det != 0:
            return m


def _det_fraction(m):
    """Fraction Gauss determinant, local to the tests."""
    n = m.nrows
    rows = [[Fraction(e) for e in r] for r in m.rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        p = rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] / p
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return det


def fraction_inverse(rows):
    """Local Gauss-Jordan inverse over Fractions; None when singular."""
    n = len(rows)
    aug = [[Fraction(e) for e in row] + [Fraction(1 if k == i else 0) for k in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [e / p for e in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def fraction_solve(rows, rhs, nc):
    """``(rank, x)`` for ``rows * x = rhs`` by a local Gauss-Jordan over Fractions.

    ``rows`` has ``nc`` columns.  ``x`` is the lexicographically-first
    pivot solution (free variables zero), or ``None`` when the system is
    inconsistent.
    """
    aug = [[Fraction(e) for e in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nr = len(aug)
    pivots = []
    t = 0
    for col in range(nc):
        piv = next((i for i in range(t, nr) if aug[i][col]), None)
        if piv is None:
            continue
        aug[t], aug[piv] = aug[piv], aug[t]
        p = aug[t][col]
        aug[t] = [e / p for e in aug[t]]
        for i in range(nr):
            if i != t and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[t])]
        pivots.append(col)
        t += 1
    if any(aug[i][nc] for i in range(t, nr)):
        return t, None
    x = [Fraction(0)] * nc
    for k, col in enumerate(pivots):
        x[col] = aug[k][nc]
    return t, tuple(x)


def fraction_rank(rows):
    """Rank of a matrix given as a sequence of rows, by :func:`fraction_solve`."""
    rows = list(rows)
    return fraction_solve(rows, [0] * len(rows), len(rows[0]) if rows else 0)[0]


def torus_subgroup_lattice(rows, orders, num_coords):
    """Canonical pair encoding ``L = Z^n + sum_a Z * row_a / d_a`` exactly.

    Returns ``(m, H)`` where ``m`` is the exponent of ``L / Z^n`` and ``H``
    the Hermite basis of ``m * L``.  Two families generate the same torus
    subgroup exactly when their pairs are equal; no rescaling or coordinate
    permutation is applied, unlike the package's canonical action.
    """
    rows = [tuple(int(e) for e in row) for row in rows]
    orders = [int(d) for d in orders]
    n = num_coords
    if n == 0:
        return 1, IntMatrix((), ncols=0)
    m0 = lcm(*orders) if orders else 1
    gens = [tuple((m0 // d) * e for e in row) for row, d in zip(rows, orders)]
    gens += [tuple(m0 if j == i else 0 for j in range(n)) for i in range(n)]
    h0 = hermite_normal_form(IntMatrix(gens, ncols=n))
    # exponent of L / Z^n: smallest m with m * L integral
    g = gcd(m0, *(e for row in h0.rows for e in row))
    if g == 1:
        return m0, h0
    return m0 // g, IntMatrix(tuple(tuple(e // g for e in row) for row in h0.rows), ncols=n)


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.extend({d, n // d})
        d += 1
    return sorted(out)


def _hnf_contains(hnf, vec):
    v = list(vec)
    for row in hnf.rows:
        p = next(j for j, e in enumerate(row) if e)
        if v[p] % row[p]:
            return False
        q = v[p] // row[p]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _stacked(rows, orders, n, m0, col_scale):
    gens = [tuple(m0 // d * c * e for c, e in zip(col_scale, row)) for row, d in zip(rows, orders)]
    gens += [tuple(m0 * col_scale[i] if j == i else 0 for j in range(n)) for i in range(n)]
    return hermite_normal_form(IntMatrix(gens, ncols=n))


def stacked_hermite(rows, orders, n):
    """``(m0, H)``: ``m0 = lcm(orders)`` and the Hermite basis ``H`` of ``m0 * L``."""
    m0 = lcm(*orders)
    return m0, _stacked(rows, orders, n, m0, [1] * n)


def axis_order_by_divisors(hnf, j, divisors):
    """Least ``k`` in the ascending ``divisors`` with ``k * e_j`` in the row lattice of ``hnf``."""
    n = hnf.ncols
    return next(k for k in divisors if _hnf_contains(hnf, [k if i == j else 0 for i in range(n)]))


def swap_fixes_all_rows(hnf, i, j):
    """Whether swapping coordinates ``i`` and ``j`` fixes the full-rank lattice of ``hnf``,
    tested on every basis row."""
    for row in hnf.rows:
        v = list(row)
        v[i], v[j] = v[j], v[i]
        if not _hnf_contains(hnf, v):
            return False
    return True


def brute_canonical_torus_action(rows, orders, n):
    """Oracle for ``canonical_torus_action``: axis scales by a divisor scan,
    then the minimum Hermite form over every permutation inside each class."""
    m0, h0 = stacked_hermite(rows, orders, n)
    if m0 == 1:
        return IntMatrix.identity(n)
    scale = [m0 // axis_order_by_divisors(h0, j, _divisors(m0)) for j in range(n)]
    h1 = _stacked(rows, orders, n, m0, scale)
    g = gcd(m0, *(e for row in h1.rows for e in row))
    m = m0 // g
    if m == 1:
        return IntMatrix.identity(n)
    base = [[e // g for e in row] for row in h1.rows]
    proj = [m // gcd(m, *(row[j] for row in base)) for j in range(n)]
    classes = [[j for j in range(n) if proj[j] == o] for o in sorted(set(proj), reverse=True)]
    best = min(
        hermite_normal_form(IntMatrix([[row[j] for group in arr for j in group] for row in base])).rows
        for arr in product(*(permutations(c) for c in classes))
    )
    return IntMatrix(best, ncols=n)


def cokernel_order_bruteforce(m):
    """Order of Z^r / column-lattice(M^T) by subgroup closure in (Q/Z)^r.

    The residue of an integer vector v is the fractional part of inv(M^T)v,
    a unique representative of its class, so the subgroup generated by the
    images of the standard basis has exactly the cokernel's order.
    """
    r = m.nrows
    mt_rows = [list(col) for col in zip(*[list(row) for row in m.rows])] if r else []
    inv = fraction_inverse(mt_rows)
    if inv is None:
        raise ValueError("oracle needs a nonsingular matrix")

    def frac(vec):
        return tuple(x - (x.numerator // x.denominator) for x in vec)

    gens = [frac([inv[i][j] for i in range(r)]) for j in range(r)]
    seen = {tuple(Fraction(0) for _ in range(r))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for elt in frontier:
            for g in gens:
                cand = frac([a + b for a, b in zip(elt, g)])
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return len(seen)


def random_unimodular(rng, n, steps=12):
    """Random unimodular matrix from elementary shears, swaps, sign flips."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.randint(-3, 3)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows, ncols=n)


def smith_integer_kernel(m):
    """Saturated kernel from the Smith transform: the columns of ``V`` past the rank.

    ``D == U * m * V`` with ``U``, ``V`` unimodular, so the last ``N - rank``
    columns of ``V`` are a basis of ``ker(m) & Z^N``; the Hermite form of
    their transpose makes it canonical.
    """
    _, _, v, rnk = _smith_general(m)
    ncols = m.ncols
    vectors = tuple(tuple(v[i][j] for i in range(ncols)) for j in range(rnk, ncols))
    return hermite_normal_form(IntMatrix(vectors, ncols=ncols)).transpose()


def smith_factors(m):
    """The nonzero Smith invariant factors of any integer matrix, ascending."""
    _, d, _, rnk = _smith_general(m)
    return tuple(d[k][k] for k in range(rnk))


def smith_row_space_reduce(m):
    """Saturated row lattice as the kernel of the kernel, in Hermite form."""
    a = smith_integer_kernel(m)
    b = smith_integer_kernel(a.transpose())
    return hermite_normal_form(b.transpose())
