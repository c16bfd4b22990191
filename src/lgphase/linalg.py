"""Exact integer and rational matrix arithmetic.

Everything runs on arbitrary-precision Python ``int`` and
``fractions.Fraction``, so results are exact and platform independent.  The
matrix types are immutable value objects; all operations are pure functions,
which makes them safe to share between threads.

Conventions fixed here and relied on elsewhere:

* ``smith_normal_form(R)`` returns ``(U, D, V)`` with ``D == U * R * V``,
  ``D`` diagonal with positive entries in ascending divisibility order
  (``d1 | d2 | ...``) and ``U``, ``V`` unimodular.
* ``hermite_normal_form(M)`` is the unique row-style Hermite form of the
  lattice spanned by the rows of ``M``: echelon shape with strictly
  increasing pivot columns, positive pivots, entries above a pivot reduced
  into ``[0, pivot)``, zero rows dropped.  Same lattice, same form.
* ``integer_kernel(Q)`` returns the full saturated kernel lattice
  ``ker(Q) & Z^N`` as matrix columns, canonicalized by the Hermite form of
  its transpose.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NotSquare, SingularMatrix

__all__ = [
    "IntMatrix",
    "RatMatrix",
    "SmithDecomposition",
    "xgcd",
    "rank",
    "determinant",
    "invert_rational",
    "smith_normal_form",
    "invariant_factors",
    "hermite_normal_form",
    "integer_kernel",
    "row_space_reduce",
    "solve_exact",
]


def xgcd(a, b):
    """Extended gcd.  Returns ``(x, y, g)`` with ``x*a + y*b == g == gcd(a, b) >= 0``.

    >>> xgcd(12, -8)
    (-1, -2, 4)
    >>> xgcd(0, 0)
    (1, 0, 0)
    """
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class _Matrix:
    """Shared storage and structural operations for both matrix types."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows, ncols=None):
        convert = self._convert
        data = tuple(tuple(convert(e) for e in row) for row in rows)
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise ValueError("rows have unequal lengths")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} disagrees with row length {width}")
            self._ncols = width
        else:
            self._ncols = 0 if ncols is None else operator.index(ncols)
            if self._ncols < 0:
                raise ValueError("negative column count")
        self._rows = data

    @property
    def nrows(self):
        return len(self._rows)

    @property
    def ncols(self):
        return self._ncols

    @property
    def shape(self):
        return (len(self._rows), self._ncols)

    @property
    def rows(self):
        """All entries as a tuple of row tuples."""
        return self._rows

    def row(self, i):
        return self._rows[i]

    def column(self, j):
        if not 0 <= j < self._ncols:
            raise IndexError(j)
        return tuple(r[j] for r in self._rows)

    def columns(self):
        return tuple(self.column(j) for j in range(self._ncols))

    def __getitem__(self, key):
        i, j = key
        return self._rows[i][j]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._rows == other._rows and self._ncols == other._ncols

    def __hash__(self):
        return hash((type(self).__name__, self._rows, self._ncols))

    def __repr__(self):
        name = type(self).__name__
        if not self._rows or not self._ncols:
            return f"{name}({list(map(list, self._rows))!r}, ncols={self._ncols})"
        return f"{name}({[list(r) for r in self._rows]!r})"

    @classmethod
    def identity(cls, n):
        one = cls._convert(1)
        zero = cls._convert(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), ncols=n)

    @classmethod
    def zeros(cls, nrows, ncols):
        zero = cls._convert(0)
        return cls(tuple((zero,) * ncols for _ in range(nrows)), ncols=ncols)

    def transpose(self):
        if self._rows and self._ncols:
            return type(self)(tuple(zip(*self._rows)))
        # degenerate shapes: r x 0 -> 0 x r, 0 x c -> c x 0
        return type(self)(tuple(() for _ in range(self._ncols)), ncols=len(self._rows))

    def select_columns(self, indices):
        idx = tuple(indices)
        for j in idx:
            if not 0 <= j < self._ncols:
                raise IndexError(j)
        return type(self)(tuple(tuple(r[j] for j in idx) for r in self._rows), ncols=len(idx))

    def hstack(self, other):
        if type(other) is not type(self) or other.nrows != self.nrows:
            raise ValueError("hstack needs a same-type matrix with equal row count")
        return type(self)(
            tuple(a + b for a, b in zip(self._rows, other._rows)),
            ncols=self._ncols + other._ncols,
        )

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        zero = self._convert(0)
        if self._ncols == 0:
            return type(self)(tuple((zero,) * other._ncols for _ in self._rows), ncols=other._ncols)
        ot = tuple(zip(*other._rows))
        out = tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in ot) for r in self._rows)
        return type(self)(out, ncols=other._ncols)


def _check_int(x):
    if type(x) is bool:
        raise TypeError("refusing a boolean entry; pass an integer")
    return int(operator.index(x))


class IntMatrix(_Matrix):
    """Immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ()
    _convert = staticmethod(_check_int)

    def to_rational(self):
        return RatMatrix(tuple(tuple(Fraction(e) for e in r) for r in self._rows), ncols=self._ncols)


def _check_fraction(x):
    if isinstance(x, float):
        raise TypeError("refusing a float entry; pass Fraction, int, or 'p/q' text")
    return Fraction(x)


class RatMatrix(_Matrix):
    """Immutable matrix with exact rational entries in lowest terms."""

    __slots__ = ()
    _convert = staticmethod(_check_fraction)

    def is_integral(self):
        return all(e.denominator == 1 for r in self._rows for e in r)

    def to_integer(self):
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix(tuple(tuple(int(e) for e in r) for r in self._rows), ncols=self._ncols)


# ---------------------------------------------------------------------------
# fraction-free elimination (Bareiss): rank and determinant


def _echelon_fraction_free(rows, nrows, ncols):
    """In-place fraction-free echelon reduction.

    Returns ``(rank, pivot_columns, swap_sign, last_pivot)``.  Entries stay
    integers throughout; each update divides exactly by the previous pivot.
    """
    prev = 1
    sign = 1
    t = 0
    pivots = []
    last = 1
    for col in range(ncols):
        piv = next((i for i in range(t, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != t:
            rows[t], rows[piv] = rows[piv], rows[t]
            sign = -sign
        p = rows[t][col]
        for i in range(t + 1, nrows):
            ric = rows[i][col]
            ri = rows[i]
            rt = rows[t]
            for j in range(col + 1, ncols):
                ri[j] = (p * ri[j] - ric * rt[j]) // prev
            ri[col] = 0
        prev = p
        last = p
        pivots.append(col)
        t += 1
        if t == nrows:
            break
    return t, pivots, sign, last


def rank(m):
    """Rank of an integer matrix, by exact fraction-free elimination."""
    rows = [list(r) for r in m.rows]
    r, _, _, _ = _echelon_fraction_free(rows, m.nrows, m.ncols)
    return r


def _det_rows(rows):
    """Determinant of a small square matrix given as mutable row lists."""
    n = len(rows)
    if n == 0:
        return 1
    work = [list(r) for r in rows]
    r, _, sign, last = _echelon_fraction_free(work, n, n)
    if r < n:
        return 0
    return sign * last


def determinant(m):
    """Determinant of a square integer matrix (Bareiss elimination).

    >>> determinant(IntMatrix([[1, -4], [-2, 0]]))
    -8
    """
    if m.nrows != m.ncols:
        raise NotSquare(f"determinant needs a square matrix, got {m.shape}")
    return _det_rows([list(r) for r in m.rows])


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan


def _exchange(t, a, c, p):
    """One exact pivot of the integer tableau ``t`` on entry ``(a, c)``, in place.

    ``p`` is the previous pivot.  Every row but ``a`` becomes
    ``(q * t[i] - t[i][c] * t[a]) // p`` with ``q = t[a][c]``; row ``a``
    stays.  When ``t == p * B^-1 * M`` with ``p == det B`` for a block
    ``B`` of columns of ``M`` and unit vectors, the result is the same for
    ``B`` with its column ``a`` replaced by column ``c`` of ``M``, whose
    determinant is ``q``.  The division is exact because every entry is a
    minor of ``[M | I]``.  Returns ``q``.
    """
    ta = t[a]
    q = ta[c]
    for i, ti in enumerate(t):
        if i != a:
            f = ti[c]
            t[i] = [(q * x - f * y) // p for x, y in zip(ti, ta)]
    return q


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
        p = _exchange(t, a, c, p)
        basis[a] = c
    return p, True


def _fraction_free_solve(rows, cols):
    """Fraction-free Gauss-Jordan elimination of the columns ``cols`` of ``rows``.

    ``R`` is the square block of ``rows`` in the columns ``cols`` (in that
    order).  Returns ``(p, T)`` with ``T == p * R^-1 * rows`` as integer
    row lists, where ``p`` is the last Bareiss pivot (``+-det R``), or
    ``(0, None)`` when ``R`` is singular.  Row ``k`` of ``T`` belongs to
    column ``cols[k]``, which ``T`` holds as ``p`` times a unit vector.

    >>> _fraction_free_solve([[2, 1, 1, 0], [1, 1, 0, 1]], (0, 1))
    (1, [[1, 0, 1, -1], [0, 1, -1, 2]])
    >>> _fraction_free_solve([[1, 2], [2, 4]], (0, 1))
    (0, None)
    """
    t = [list(r) for r in rows]
    basis = [None] * len(t)
    p, ok = _pivot_in(t, 1, basis, cols, range(len(t)))
    if not ok:
        return 0, None
    row_of = {c: a for a, c in enumerate(basis)}
    return p, [t[row_of[c]] for c in cols]


def invert_rational(m):
    """Exact inverse of a square integer or rational matrix, as ``RatMatrix``.

    Each row is scaled by the lcm of its denominators, the integer matrix
    is inverted fraction-free, and column ``j`` of the result is multiplied
    back by the scale of row ``j``.  Raises :class:`SingularMatrix` when no
    inverse exists.
    """
    if m.nrows != m.ncols:
        raise NotSquare(f"inverse needs a square matrix, got {m.shape}")
    n = m.nrows
    scales = [lcm(*(e.denominator for e in row)) for row in m.rows]
    aug = [
        [e.numerator * (s // e.denominator) for e in row] + [int(k == i) for k in range(n)]
        for i, (row, s) in enumerate(zip(m.rows, scales))
    ]
    p, t = _fraction_free_solve(aug, range(n))
    if p == 0:
        raise SingularMatrix("matrix is singular")
    return RatMatrix(
        tuple(tuple(Fraction(x * s, p) for x, s in zip(row[n:], scales)) for row in t), ncols=n
    )


def solve_exact(a, b):
    """One exact solution ``x`` of ``a * x = b`` or ``None`` if inconsistent.

    ``a`` is an integer or rational matrix, ``b`` a sequence of the same
    height.  Free variables, if any, are set to zero, so the returned
    solution is the lexicographically-first pivot solution.
    """
    nr, nc = a.shape
    bvec = [_check_fraction(x) for x in b]
    if len(bvec) != nr:
        raise ValueError(f"right-hand side has length {len(bvec)}, expected {nr}")
    aug = [[Fraction(e) for e in a.row(i)] + [bvec[i]] for i in range(nr)]
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
    for i in range(t, nr):
        if aug[i][nc]:
            return None
    x = [Fraction(0)] * nc
    for k, col in enumerate(pivots):
        x[col] = aug[k][nc]
    return tuple(x)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith decomposition ``d == u * r * v`` with unimodular ``u`` and ``v``.

    ``d`` is diagonal with positive entries in ascending divisibility order.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self):
        n = min(self.d.nrows, self.d.ncols)
        return tuple(self.d[i, i] for i in range(n))


def _smith_general(m):
    """Smith reduction of an arbitrary integer matrix.

    Returns ``(u, d, v, rank)`` as lists of row lists with
    ``d == u * m * v``, ``u`` and ``v`` unimodular, the nonzero diagonal of
    ``d`` positive with ``d1 | d2 | ...``.
    """
    nrows, ncols = m.shape
    d = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while True:
        best = None
        for i in range(t, nrows):
            di = d[i]
            for j in range(t, ncols):
                e = di[j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            restart = False
            for i in range(t + 1, nrows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        add_row(i, t, -q)
                    if d[i][t]:
                        # remainder is a strictly smaller pivot candidate
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, ncols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        add_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot row and column are clean; force the pivot to divide the
            # rest of the block, pulling a bad row up if necessary
            p = d[t][t]
            bad = None
            for i in range(t + 1, nrows):
                di = d[i]
                for j in range(t + 1, ncols):
                    if di[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        t += 1
    for k in range(min(nrows, ncols)):
        if d[k][k] < 0:
            d[k] = [-e for e in d[k]]
            u[k] = [-e for e in u[k]]
    rnk = sum(1 for k in range(min(nrows, ncols)) if d[k][k] != 0)
    return u, d, v, rnk


def smith_normal_form(m):
    """Smith decomposition of a square nonsingular integer matrix.

    >>> smith_normal_form(IntMatrix([[-2]])).diagonal
    (2,)
    """
    if m.nrows != m.ncols:
        raise NotSquare(f"Smith form here is for square matrices, got {m.shape}")
    u, d, v, rnk = _smith_general(m)
    if rnk < m.nrows:
        raise SingularMatrix("matrix is singular")
    return SmithDecomposition(
        u=IntMatrix(u, ncols=m.nrows),
        d=IntMatrix(d, ncols=m.ncols),
        v=IntMatrix(v, ncols=m.ncols),
    )


def invariant_factors(m):
    """Nonzero Smith invariant factors of any integer matrix, ascending."""
    _, d, _, rnk = _smith_general(m)
    return tuple(d[k][k] for k in range(rnk))


# ---------------------------------------------------------------------------
# Hermite normal form and lattice routines


def hermite_normal_form(m):
    """Unique row-style Hermite form of the lattice spanned by the rows.

    Echelon with strictly increasing pivot columns, positive pivots, entries
    above each pivot reduced into ``[0, pivot)``; zero rows are dropped, so
    the output has ``rank(m)`` rows.

    >>> hermite_normal_form(IntMatrix([[0, 2], [2, 0]])).rows
    ((2, 0), (0, 2))
    """
    work = [list(r) for r in m.rows]
    out = []
    for col in range(m.ncols):
        idxs = [k for k, row in enumerate(work) if row[col]]
        if not idxs:
            continue
        k0 = idxs[0]
        for k in idxs[1:]:
            a, b = work[k0][col], work[k][col]
            x, y, g = xgcd(a, b)
            ra, rb = work[k0], work[k]
            work[k0] = [x * p + y * q for p, q in zip(ra, rb)]
            work[k] = [-(b // g) * p + (a // g) * q for p, q in zip(ra, rb)]
        piv = work.pop(k0)
        if piv[col] < 0:
            piv = [-e for e in piv]
        out.append((col, piv))
    for i in range(len(out)):
        ci, rowi = out[i]
        p = rowi[ci]
        for k in range(i):
            rk = out[k][1]
            q = rk[ci] // p
            if q:
                out[k] = (out[k][0], [a - q * b for a, b in zip(rk, rowi)])
    return IntMatrix(tuple(tuple(r) for _, r in out), ncols=m.ncols)


def integer_kernel(m):
    """Saturated integer kernel ``ker(m) & Z^N`` as matrix columns.

    The result is ``N x n`` with ``n = N - rank(m)``; its columns are a
    basis of every integer solution of ``m * x = 0``, canonicalized by the
    Hermite form of the transpose.  Saturation means the basis extends to a
    basis of ``Z^N`` (all Smith invariants equal 1).
    """
    _, _, v, rnk = _smith_general(m)
    ncols = m.ncols
    vectors = tuple(tuple(v[i][j] for i in range(ncols)) for j in range(rnk, ncols))
    h = hermite_normal_form(IntMatrix(vectors, ncols=ncols))
    return h.transpose()


def row_space_reduce(m):
    """Canonical basis of the saturated row lattice ``rowspace_Q(m) & Z^N``.

    Returns an ``r x N`` matrix in Hermite form whose rows span the rational
    row space of ``m`` and generate its full integer point lattice.  Two
    matrices with equal rational row spaces reduce to the same output.

    >>> row_space_reduce(IntMatrix([[2, 2, -4], [1, 1, -2]])).rows
    ((1, 1, -2),)
    """
    a = integer_kernel(m)
    b = integer_kernel(a.transpose())
    return hermite_normal_form(b.transpose())
