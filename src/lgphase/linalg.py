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
  its transpose; ``row_space_reduce(Q)`` returns the Hermite form of the
  saturated row lattice.  Both read their lattice off one fraction-free
  tableau ``p * B^-1 * Q`` and run the Hermite arithmetic mod ``|p|``, so
  no entry of the lattice pass outgrows the minors of ``Q``.  The Smith
  form serves the orbifold groups only.
* Every tableau ``p * B^-1 * M`` of a matrix starts in
  ``_eliminate(rows, cols)``, on integer rows.  Only the Gale search of
  :mod:`lgphase.phases` moves one on with ``_exchange``: its LP and scan
  tableaux extend that of ``Q`` or start on an identity block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import NotSquare, SingularMatrix

__all__ = [
    "IntMatrix",
    "RatMatrix",
    "SmithDecomposition",
    "xgcd",
    "determinant",
    "invert_rational",
    "smith_normal_form",
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
        data = tuple(tuple(map(convert, row)) for row in rows)
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
    def _of(cls, rows, ncols):
        """A matrix on ``rows``, equal-length tuples of this type's entries, taken unchecked."""
        self = object.__new__(cls)
        self._rows = rows
        self._ncols = ncols
        return self

    @classmethod
    def identity(cls, n):
        one = cls._convert(1)
        zero = cls._convert(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)), ncols=n)

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
        return self._of(tuple(tuple(r[j] for j in idx) for r in self._rows), len(idx))

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
    if type(x) is int:
        return x
    if type(x) is bool:
        raise TypeError("refusing a boolean entry; pass an integer")
    return int(operator.index(x))


class IntMatrix(_Matrix):
    """Immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ()
    _convert = staticmethod(_check_int)


def _check_fraction(x):
    if isinstance(x, float):
        raise TypeError("refusing a float entry; pass Fraction, int, or 'p/q' text")
    return Fraction(x)


class RatMatrix(_Matrix):
    """Immutable matrix with exact rational entries in lowest terms."""

    __slots__ = ()
    _convert = staticmethod(_check_fraction)


# ---------------------------------------------------------------------------
# one fraction-free tableau, one entry point: determinant, inverse, solve


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


def _eliminate(rows, cols):
    """The tableau of the integer rows ``rows`` with the columns ``cols`` pivoted in, in order.

    Column ``c`` is pivoted into the first row that holds no column yet and
    is nonzero in ``c``; a column with no such row depends on those before
    it and is skipped.  Returns ``(t, p, basis)`` with
    ``t == p * B^-1 * rows`` and ``p == det B``, where ``basis[a]`` names
    the column held by row ``a`` (``None`` for a unit vector that no column
    has replaced).  Rows that hold no column are zero in every column of
    ``cols``, so a square block is singular exactly when ``None in basis``.

    >>> _eliminate([[2, 1, 1, 0], [1, 1, 0, 1]], (0, 1))
    ([[1, 0, 1, -1], [0, 1, -1, 2]], 1, [0, 1])
    >>> _eliminate([[1, 2], [2, 4]], (0, 1))
    ([[1, 2], [0, 0]], 1, [0, None])
    """
    t = [list(row) for row in rows]
    basis = [None] * len(t)
    p = 1
    for c in cols:
        a = next((i for i, held in enumerate(basis) if held is None and t[i][c]), None)
        if a is not None:
            p = _exchange(t, a, c, p)
            basis[a] = c
    return t, p, basis


def _integer_row(row):
    """``row`` times the lcm of its denominators, as integers."""
    s = lcm(*(e.denominator for e in row))
    return [e.numerator * (s // e.denominator) for e in row]


def determinant(m):
    """Determinant of a square integer matrix, by exact fraction-free elimination.

    The tableau ends on ``B``, the columns of ``m`` in the order ``basis``,
    with ``p == det B``; the parity of that order gives the sign.  Any
    other argument than an :class:`IntMatrix` raises ``TypeError``: the
    exact division of the pivot step holds for integer entries only.

    >>> determinant(IntMatrix([[1, -4], [-2, 0]]))
    -8
    """
    if not isinstance(m, IntMatrix):
        raise TypeError(f"determinant needs an IntMatrix, got {type(m).__name__}")
    if m.nrows != m.ncols:
        raise NotSquare(f"determinant needs a square matrix, got {m.shape}")
    _, p, basis = _eliminate(m.rows, range(m.ncols))
    if None in basis:
        return 0
    inversions = sum(a > b for i, a in enumerate(basis) for b in basis[i + 1:])
    return -p if inversions % 2 else p


def invert_rational(m):
    """Exact inverse of a square integer or rational matrix, as ``RatMatrix``.

    Each row of ``[M | I]`` is scaled to integers, ``S * [M | I]``, and
    eliminated in the columns of ``M``: the tableau is
    ``p * (S M)^-1 * S * [M | I]``, whose last ``n`` columns are
    ``p * M^-1`` once its rows are put in column order.  Raises
    :class:`SingularMatrix` when no inverse exists.
    """
    if m.nrows != m.ncols:
        raise NotSquare(f"inverse needs a square matrix, got {m.shape}")
    n = m.nrows
    aug = [_integer_row(row + tuple(int(k == i) for k in range(n))) for i, row in enumerate(m.rows)]
    t, p, basis = _eliminate(aug, range(n))
    if None in basis:
        raise SingularMatrix("matrix is singular")
    return RatMatrix(
        tuple(tuple(Fraction(x, p) for x in row[n:]) for _, row in sorted(zip(basis, t))),
        ncols=n,
    )


def solve_exact(a, b):
    """One exact solution ``x`` of ``a * x = b`` or ``None`` if inconsistent.

    ``a`` is an integer or rational matrix, ``b`` a sequence of the same
    height.  Free variables, if any, are set to zero, so the returned
    solution is the lexicographically-first pivot solution; when the
    columns of ``a`` are independent it is the only one.
    """
    nr, nc = a.shape
    bvec = [_check_fraction(x) for x in b]
    if len(bvec) != nr:
        raise ValueError(f"right-hand side has length {len(bvec)}, expected {nr}")
    t, p, basis = _eliminate([_integer_row(row + (x,)) for row, x in zip(a.rows, bvec)], range(nc))
    x = [Fraction(0)] * nc
    for row, col in zip(t, basis):
        if col is not None:
            x[col] = Fraction(row[nc], p)
        elif row[nc]:
            return None
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
    return IntMatrix._of(tuple(tuple(r) for _, r in out), m.ncols)


def _saturation_basis(m, d):
    """Hermite basis of ``L = {w in Z^k : w * m == 0 mod d}``, all arithmetic mod ``d``.

    ``m`` is a ``k x f`` list of integer rows and ``d > 0``.  ``L`` holds
    ``d * Z^k``, so its Hermite form is ``k x k`` upper triangular.  It is
    read off the Hermite form of ``Lam = rows of [m | I_k] + d * Z^(f+k)``:
    a vector ``(0, w)`` lies in ``Lam`` exactly when ``w`` lies in ``L``
    (``(0, w) = c * [m | I] + d * (u, v)`` forces ``c * m == 0 mod d`` and
    ``w == c mod d``), and the Hermite rows of ``Lam`` with a pivot past
    column ``f`` are an echelon basis of ``Lam & (0 + Z^k)``.

    ``Lam`` holds ``d`` times every unit vector, so column ``c`` is
    eliminated starting from the pivot row ``d * e_c`` and every entry
    off the pivot stays reduced into ``[0, d)``: the arithmetic of Domich,
    Kannan and Trotter (Math. Oper. Res. 12, 1987).  The pivot of column
    ``c`` divides ``d``.  Returns the ``k x k`` Hermite form as row lists.

    >>> _saturation_basis([[1], [1]], 2)
    [[1, 1], [0, 2]]
    """
    k = len(m)
    f = len(m[0]) if k else 0
    width = f + k
    work = [[x % d for x in row] + [int(i == j) for j in range(k)] for i, row in enumerate(m)]
    h = []
    for c in range(width):
        piv = [0] * width
        piv[c] = d
        for i, row in enumerate(work):
            b = row[c]
            if b:
                a = piv[c]
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                work[i] = [(ag * v - bg * u) % d for u, v in zip(piv, row)]
                piv = [(x * u + y * v) % d for u, v in zip(piv, row)]
                piv[c] = g
        if c >= f:
            h.append(piv[f:])
    for i, hi in enumerate(h):
        g = hi[i]
        for row in h[:i]:
            q = row[i] // g
            if q:
                row[i:] = [(u - q * v) % d for u, v in zip(row[i:], hi[i:])]
    return h


def integer_kernel(m):
    """Saturated integer kernel ``ker(m) & Z^N`` as matrix columns.

    The result is ``N x n`` with ``n = N - rank(m)``; its columns are a
    basis of every integer solution of ``m * x = 0``, canonicalized by the
    Hermite form of the transpose.  Saturation means the basis extends to a
    basis of ``Z^N`` (all Smith invariants equal 1).

    Proof of the construction.  Eliminate the columns of ``m`` from the
    last to the first (:func:`_eliminate` on the reversed columns): the
    held columns ``P`` are the last-first column basis, the rest ``F``, and
    the held rows ``t`` satisfy ``t[:, P] == p * I`` with ``m * x == 0``
    exactly when ``t * x == 0``.  So ``x`` is a kernel vector exactly when
    ``x_P == -t[:, F] * x_F / p``, and integral exactly when ``z = x_F``
    lies in ``L = {z : t[:, F] * z == 0 mod |p|}``; ``z -> x`` is a
    bijection of ``L`` onto the kernel lattice.  Column ``j`` of ``F`` is a
    combination of the columns of ``P`` past it, so the row of ``c in P``
    vanishes on ``F`` past ``c``, and a vector of ``L`` zero before its
    ``k``-th coordinate lifts to a kernel vector zero before ``F[k]``.
    Hence the lift of the Hermite form of ``L``
    (:func:`_saturation_basis`, arithmetic mod ``|p|``) is echelon with
    the same pivots and reduced entries above them: it is the Hermite form
    of the kernel, row by row.

    >>> integer_kernel(IntMatrix([[1, 1, -2]])).rows
    ((1, 0), (1, 2), (1, 1))
    """
    ncols = m.ncols
    t, p, basis = _eliminate([row[::-1] for row in m.rows], range(ncols))
    held = {ncols - 1 - c: row[::-1] for c, row in zip(basis, t) if c is not None}
    free = [j for j in range(ncols) if j not in held]
    h = _saturation_basis([[row[j] for row in held.values()] for j in free], abs(p))
    vectors = []
    for z in h:
        x = [0] * ncols
        for j, zj in zip(free, z):
            x[j] = zj
        for c, row in held.items():
            x[c] = -sum(row[j] * zj for j, zj in zip(free, z)) // p
        vectors.append(x)
    return IntMatrix(vectors, ncols=ncols).transpose()


def row_space_reduce(m):
    """Canonical basis of the saturated row lattice ``rowspace_Q(m) & Z^N``.

    Returns an ``r x N`` matrix in Hermite form whose rows span the rational
    row space of ``m`` and generate its full integer point lattice.  Two
    matrices with equal rational row spaces reduce to the same output.

    Proof of the construction.  :func:`_eliminate` holds the lex-first
    column basis ``P`` of ``m``; sorted by pivot, its held rows are
    ``t == p * E`` with ``E`` the reduced row echelon form, so
    ``t[:, P] == p * I``.  A rational row vector ``y`` of the row space is
    ``y_P * E``, so it is integral exactly when ``w = y_P`` lies in
    ``L = {w in Z^r : w * t[:, F] == 0 mod |p|}`` (``F`` the other
    columns), and ``w -> w * t / p`` maps ``L`` onto the saturated row
    lattice.  Row ``k`` of ``E`` vanishes before ``P[k]``, so the lift of
    the Hermite form of ``L`` (:func:`_saturation_basis`, arithmetic mod
    ``|p|``) is echelon with pivots ``P`` and reduced entries above them:
    it is the Hermite form of the saturated row lattice, row by row.

    >>> row_space_reduce(IntMatrix([[2, 2, -4], [1, 1, -2]])).rows
    ((1, 1, -2),)
    """
    t, p, basis = _eliminate(m.rows, range(m.ncols))
    held = [row for _, row in sorted((c, row) for c, row in zip(basis, t) if c is not None)]
    pivots = set(basis)
    free = [j for j in range(m.ncols) if j not in pivots]
    h = _saturation_basis([[row[j] for j in free] for row in held], abs(p))
    cols = tuple(zip(*held))
    rows = tuple(tuple(sum(w * e for w, e in zip(ws, col)) // p for col in cols) for ws in h)
    return IntMatrix(rows, ncols=m.ncols)
