"""The saturated row lattice and kernel from the fraction-free tableau.

``row_space_reduce`` and ``integer_kernel`` are checked against the Smith
route in ``conftest`` (``smith_row_space_reduce``, ``smith_integer_kernel``)
on seeded awkward matrices, and against digests that route recorded on two
30 x 34 draws whose Smith transforms blow up.
"""

import hashlib
import random
import time

import pytest

from conftest import fraction_rank, smith_integer_kernel, smith_row_space_reduce
from lgphase import IntMatrix, integer_kernel, row_space_reduce
from lgphase import linalg

KINDS = (
    "zero matrix",
    "zero column",
    "repeated column",
    "scaled column",
    "dependent rows",
    "scaled rows",
    "more rows than rank",
    "full column rank",
    "random",
)


def awkward_matrix(rng, kind):
    rho = rng.randint(1, 6)
    n = rng.randint(1, 8)
    bound = rng.choice((1, 2, 3, 10, 100))

    def draw(nrows, ncols):
        return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]

    rows = draw(rho, n)
    if kind == "zero matrix":
        rows = [[0] * n for _ in range(rho)]
    elif kind in ("zero column", "repeated column", "scaled column"):
        j, k = rng.randrange(n), rng.randrange(n)
        scale = {"zero column": 0, "repeated column": 1}.get(kind, rng.choice((-3, -2, 2, 3)))
        for row in rows:
            row[j] = scale * row[k]
    elif kind == "dependent rows" and rho > 1:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    elif kind == "scaled rows":
        scale = rng.choice((-6, -2, 2, 3, 6))
        rows = [[scale * x for x in row] if rng.random() < 0.5 else row for row in rows]
    elif kind == "more rows than rank":
        base = draw(rng.randint(1, max(1, rho - 1)), n)
        rows = [[sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(n)]
                for coeffs in ([rng.randint(-2, 2) for _ in base] for _ in range(rho))]
    elif kind == "full column rank":
        n = rng.randint(1, rho)
        while fraction_rank(rows := draw(rho, n)) < n:
            pass
    return IntMatrix(rows, ncols=n)


def _pivot(m):
    return linalg._eliminate(m.rows, range(m.ncols))[1]


def _reversed_pivot(m):
    return linalg._eliminate([row[::-1] for row in m.rows], range(m.ncols))[1]


class TestAgainstSmithRoute:
    def test_awkward_matrices(self):
        rng = random.Random(20260)
        seen = {kind: 0 for kind in KINDS}
        negative_pivots = full_rank_kernels = deficient = 0
        for i in range(5400):
            kind = KINDS[i % len(KINDS)]
            m = awkward_matrix(rng, kind)
            reduced = row_space_reduce(m)
            kernel = integer_kernel(m)
            assert reduced == smith_row_space_reduce(m), (kind, m)
            assert kernel == smith_integer_kernel(m), (kind, m)
            seen[kind] += 1
            negative_pivots += _pivot(m) < 0 and _reversed_pivot(m) < 0
            full_rank_kernels += kernel.ncols == 0
            deficient += reduced.nrows < m.nrows
        assert min(seen.values()) == 600
        assert negative_pivots > 100 and full_rank_kernels > 600 and deficient > 1000

    def test_degenerate_shapes(self):
        for m in (IntMatrix((), ncols=3), IntMatrix([[], []], ncols=0), IntMatrix([[0, 0]])):
            assert row_space_reduce(m) == smith_row_space_reduce(m)
            assert integer_kernel(m) == smith_integer_kernel(m)

    def test_pinned_negative_pivot(self):
        # the tableau of [[0, 1], [-2, 0]] ends on p == -2
        m = IntMatrix([[0, 1, 3], [-2, 0, 1]])
        assert _pivot(m) < 0
        assert row_space_reduce(m) == smith_row_space_reduce(m)
        assert integer_kernel(m) == IntMatrix([[1], [-6], [2]])


def _cliff_draw(seed):
    rng = random.Random(seed)
    return IntMatrix([[rng.randint(-50, 50) for _ in range(34)] for _ in range(30)])


def _digest(m):
    return hashlib.sha256(repr(m.rows).encode()).hexdigest()


class TestCoefficientCliff:
    # digests recorded once from smith_row_space_reduce and smith_integer_kernel,
    # which take 12 s and 5 s on these draws (Python 3.11.7)
    DIGESTS = {
        1: ("f038ea9d6cfc5aa26a4145e1fbf1728ae2eea64b262f834819a82ecbfd77df2f",
            "bc8f52594825dcfc8864cf05acd1f3b877af3d09c7c19cde4296c8cb9fb96bce"),
        2: ("36b8a75a5fc02e0d35d616c2dfb075e3693d2c555ba94e850b4db7696270337b",
            "e9eeb8901b33ba637caf8fda1964c8c3b81379d3504a67469a4fb88b5307f630"),
    }

    @pytest.mark.parametrize("seed", [1, 2])
    def test_draw_is_fast_and_canonical(self, seed):
        m = _cliff_draw(seed)
        start = time.perf_counter()
        reduced = row_space_reduce(m)
        kernel = integer_kernel(m)
        elapsed = time.perf_counter() - start
        assert (_digest(reduced), _digest(kernel)) == self.DIGESTS[seed]
        assert elapsed < 2.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_hermite_entries_stay_below_the_modulus(self, seed, monkeypatch):
        moduli, excess = [], []
        saturation_basis, xgcd = linalg._saturation_basis, linalg.xgcd

        def recorded_basis(m, d):
            moduli.append(d)
            return saturation_basis(m, d)

        def recorded_xgcd(a, b):
            excess.append(max(abs(a), abs(b)) - moduli[-1])
            return xgcd(a, b)

        monkeypatch.setattr(linalg, "_saturation_basis", recorded_basis)
        monkeypatch.setattr(linalg, "xgcd", recorded_xgcd)
        m = _cliff_draw(seed)
        row_space_reduce(m)
        integer_kernel(m)
        assert len(moduli) == 2 and len(excess) > 100
        assert max(excess) <= 0
