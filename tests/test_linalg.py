"""Exact linear algebra: pinned small cases plus randomized structure checks."""

import random
from fractions import Fraction

import pytest

from conftest import (
    cokernel_order_bruteforce,
    det_permutation_expansion,
    fraction_inverse,
    rand_matrix,
    random_nonsingular,
    random_unimodular,
)
from lgphase import (
    IntMatrix,
    NotSquare,
    RatMatrix,
    SingularMatrix,
    determinant,
    hermite_normal_form,
    integer_kernel,
    invariant_factors,
    invert_rational,
    rank,
    row_space_reduce,
    smith_normal_form,
    solve_exact,
    xgcd,
)
from lgphase import linalg


class TestXgcd:
    def test_identity_holds(self):
        for a in range(-8, 9):
            for b in range(-8, 9):
                x, y, g = xgcd(a, b)
                assert a * x + b * y == g
                assert g == abs(a) if b == 0 else g >= 0

    def test_zero_zero(self):
        x, y, g = xgcd(0, 0)
        assert g == 0 and 0 * x + 0 * y == g

    def test_gcd_value(self):
        assert xgcd(12, -18)[2] == 6
        assert xgcd(-5, 0)[2] == 5


class TestMatrixBasics:
    def test_shape_and_access(self):
        m = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m[1, 2] == 6
        assert m.row(0) == (1, 2, 3)
        assert m.column(1) == (2, 5)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.5]])
        with pytest.raises(TypeError):
            RatMatrix([[0.25]])

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            IntMatrix([[True, False, -1]])
        with pytest.raises(TypeError):
            IntMatrix([[1, 0, -1]]) * IntMatrix([[False], [0], [0]])

    def test_empty_needs_ncols(self):
        m = IntMatrix([], ncols=3)
        assert m.shape == (0, 3)
        assert m.transpose().shape == (3, 0)
        assert m.transpose().transpose() == m

    def test_equality_and_hash(self):
        a = IntMatrix([[1, 2]])
        b = IntMatrix([(1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != IntMatrix([[1, 3]])

    def test_transpose_roundtrip(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 9)
            assert m.transpose().transpose() == m

    def test_product(self):
        a = IntMatrix([[1, 2], [3, 4]])
        b = IntMatrix([[0, 1], [1, 0]])
        assert a * b == IntMatrix([[2, 1], [4, 3]])

    def test_identity_is_neutral(self):
        rng = random.Random(7)
        m = rand_matrix(rng, 3, 3, 5)
        assert IntMatrix.identity(3) * m == m
        assert m * IntMatrix.identity(3) == m

    def test_rational_integrality(self):
        m = RatMatrix([[Fraction(2), Fraction(4, 2)]])
        assert m.is_integral()
        assert m.to_integer() == IntMatrix([[2, 2]])
        assert not RatMatrix([[Fraction(1, 3)]]).is_integral()


class TestRankDeterminant:
    def test_rank_examples(self):
        assert rank(IntMatrix([[1, 2], [2, 4]])) == 1
        assert rank(IntMatrix([[0, 0]], ncols=2)) == 0
        assert rank(IntMatrix([[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]])) == 2

    def test_det_examples(self):
        assert determinant(IntMatrix([[2, 1], [0, 3]])) == 6
        assert determinant(IntMatrix([[0, 1], [-4, 0]])) == 4
        assert determinant(IntMatrix([], ncols=0)) == 1

    def test_det_requires_square(self):
        with pytest.raises(NotSquare):
            determinant(IntMatrix([[1, 2, 3]]))

    def test_det_matches_permutation_expansion(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n, 8)
            assert determinant(m) == det_permutation_expansion(m)

    def test_det_multiplicative(self):
        rng = random.Random(22)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n, 5)
            b = rand_matrix(rng, n, n, 5)
            assert determinant(a * b) == determinant(a) * determinant(b)


class TestInverse:
    def test_pinned(self):
        inv = invert_rational(IntMatrix([[0, 1], [-4, 0]]).to_rational())
        assert inv == RatMatrix([[0, Fraction(-1, 4)], [1, 0]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert_rational(IntMatrix([[1, 2], [2, 4]]).to_rational())

    def test_left_and_right_inverse(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = random_nonsingular(rng, n, 7).to_rational()
            inv = invert_rational(m)
            ident = RatMatrix.identity(n)
            assert m * inv == ident
            assert inv * m == ident


    def test_matches_fraction_oracle(self):
        rng = random.Random(47)
        for _ in range(150):
            n = rng.randint(0, 6)
            ints = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.25:
                ints[-1] = [2 * a - b for a, b in zip(ints[0], ints[1])]
            rats = [[Fraction(e, rng.randint(1, 9)) for e in row] for row in ints]
            if n > 1 and rng.random() < 0.25:
                rats[-1] = [e * Fraction(-3, 7) for e in rats[0]]
            for rows, m in ((ints, IntMatrix(ints, ncols=n)), (rats, RatMatrix(rats, ncols=n))):
                expected = fraction_inverse(rows)
                if expected is None:
                    with pytest.raises(SingularMatrix):
                        invert_rational(m)
                else:
                    assert invert_rational(m) == RatMatrix(expected, ncols=n)


class TestFractionFreeSolve:
    def test_scaled_inverse_times_rows(self):
        rng = random.Random(53)
        for _ in range(150):
            r = rng.randint(0, 4)
            width = rng.randint(r, r + 4)
            rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(r)]
            cols = rng.sample(range(width), r)
            block = [[row[c] for c in cols] for row in rows]
            det = det_permutation_expansion(IntMatrix(block, ncols=r))
            p, t = linalg._fraction_free_solve(rows, cols)
            if det == 0:
                assert (p, t) == (0, None)
                continue
            assert abs(p) == abs(det)
            inv = fraction_inverse(block)
            assert t == [
                [p * sum(inv[a][k] * rows[k][j] for k in range(r)) for j in range(width)]
                for a in range(r)
            ]


class TestSolveExact:
    def test_solves(self):
        a = IntMatrix([[2, 0], [0, 3]]).to_rational()
        assert solve_exact(a, (Fraction(4), Fraction(6))) == (Fraction(2), Fraction(2))

    def test_none_outside_column_space(self):
        a = IntMatrix([[1, 0], [0, 0]]).to_rational()
        assert solve_exact(a, (Fraction(0), Fraction(1))) is None

    def test_underdetermined_is_consistent(self):
        a = IntMatrix([[1, 1]]).to_rational()
        sol = solve_exact(a, (Fraction(5),))
        assert sol is not None and sol[0] + sol[1] == 5


class TestSmith:
    def test_pinned_diagonal(self):
        dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
        assert dec.diagonal == (2, 4)

    def test_pinned_identityish(self):
        dec = smith_normal_form(IntMatrix([[0, 1], [-4, 0]]))
        assert dec.diagonal == (1, 4)

    def test_decomposition_properties(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 5)
            m = random_nonsingular(rng, n, 9)
            dec = smith_normal_form(m)
            assert dec.d == dec.u * m * dec.v
            assert abs(determinant(dec.u)) == 1
            assert abs(determinant(dec.v)) == 1
            diag = dec.diagonal
            assert all(x > 0 for x in diag)
            assert all(diag[i + 1] % diag[i] == 0 for i in range(n - 1))
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(determinant(m))

    def test_agrees_with_cokernel_oracle(self):
        rng = random.Random(42)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 3)
            m = random_nonsingular(rng, n, 4)
            if abs(determinant(m)) > 48:
                continue
            dec = smith_normal_form(m)
            prod = 1
            for x in dec.diagonal:
                prod *= x
            assert prod == cokernel_order_bruteforce(m)
            checked += 1

    def test_invariant_factors_rectangular(self):
        assert invariant_factors(IntMatrix([[2, 0, 0], [0, 6, 0]])) == (2, 6)
        assert invariant_factors(IntMatrix([[1, 2], [2, 4], [3, 6]])) == (1,)
        assert invariant_factors(IntMatrix([], ncols=4)) == ()

    def test_unimodular_invariance(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n, 6)
            u = random_unimodular(rng, n)
            v = random_unimodular(rng, n)
            assert invariant_factors(u * m * v) == invariant_factors(m)


class TestHermite:
    def test_pinned(self):
        assert hermite_normal_form(IntMatrix([[2, 0], [0, 2]])).rows == ((2, 0), (0, 2))
        assert hermite_normal_form(IntMatrix([[4, 1], [2, 3]])).rows == ((2, 3), (0, 5))
        assert hermite_normal_form(IntMatrix([[0, 0], [3, -6]])).rows == ((3, -6),)

    def test_shape_constraints(self):
        rng = random.Random(51)
        for _ in range(50):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 9)
            h = hermite_normal_form(m)
            pivots = []
            for row in h.rows:
                lead = next(j for j, e in enumerate(row) if e)
                assert row[lead] > 0
                pivots.append(lead)
                # entries above each pivot already reduced into [0, pivot)
                for prev in range(len(pivots) - 1):
                    assert 0 <= h[prev, lead] < row[lead]
            assert pivots == sorted(pivots)
            assert len(set(pivots)) == len(pivots)
            assert h.nrows == rank(m)

    def test_idempotent(self):
        rng = random.Random(52)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 9)
            h = hermite_normal_form(m)
            assert hermite_normal_form(h) == h

    def test_canonical_under_row_operations(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, rng.randint(n, n + 2), 9)
            u = random_unimodular(rng, n)
            assert hermite_normal_form(u * m) == hermite_normal_form(m)


class TestIntegerKernel:
    def test_pinned(self):
        k = integer_kernel(IntMatrix([[1, 1, -2]]))
        assert k.shape == (3, 2)
        assert IntMatrix([[1, 1, -2]]) * k == IntMatrix.zeros(1, 2)

    def test_full_rank_square_has_trivial_kernel(self):
        rng = random.Random(61)
        for _ in range(15):
            n = rng.randint(1, 4)
            m = random_nonsingular(rng, n, 6)
            assert integer_kernel(m).shape == (n, 0)

    def test_kernel_properties(self):
        rng = random.Random(62)
        for _ in range(60):
            rows = rng.randint(1, 3)
            cols = rng.randint(rows, 7)
            m = rand_matrix(rng, rows, cols, 5)
            k = integer_kernel(m)
            assert m * k == IntMatrix.zeros(rows, k.ncols)
            assert k.ncols == cols - rank(m)
            if k.ncols:
                assert rank(k) == k.ncols
                # saturated: the column lattice is primitive
                assert invariant_factors(k) == (1,) * k.ncols

    def test_saturation_catches_index(self):
        # rows (2,0),(0,2) scale the obvious kernel construction; the
        # saturated kernel of the 0-row map on their span is still primitive
        k = integer_kernel(IntMatrix([[2, -2]]))
        assert k.column(0) in ((1, 1), (-1, -1))


class TestRowSpaceReduce:
    def test_pinned(self):
        r = row_space_reduce(IntMatrix([[2, 2, -4]]))
        assert r == IntMatrix([[1, 1, -2]])

    def test_pinned_two_rows(self):
        q = IntMatrix([[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]])
        r = row_space_reduce(q)
        assert r == IntMatrix([[1, 0, 0, 0, -2, 0], [0, 1, 1, 1, 1, -4]])

    def test_rational_multiple_rows_collapse(self):
        q = IntMatrix([[2, 4], [3, 6]])
        assert row_space_reduce(q) == IntMatrix([[1, 2]])

    def test_invariant_under_row_basis_change(self):
        rng = random.Random(71)
        for _ in range(30):
            rows = rng.randint(1, 3)
            cols = rng.randint(rows, 6)
            m = rand_matrix(rng, rows, cols, 5)
            u = random_unimodular(rng, rows)
            assert row_space_reduce(u * m) == row_space_reduce(m)

    def test_idempotent(self):
        rng = random.Random(72)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 6), 5)
            r = row_space_reduce(m)
            assert row_space_reduce(r) == r
