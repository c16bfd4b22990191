"""Shared helpers for the test suite.

The brute-force oracles here deliberately avoid the package's own Smith and
Hermite code paths: the cokernel oracle runs on a local fraction inverse
and set closure, the determinant oracle on permutation expansion, so
agreement is a genuine cross-check rather than a tautology.
"""

from fractions import Fraction
from itertools import permutations

from lgphase import IntMatrix


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
