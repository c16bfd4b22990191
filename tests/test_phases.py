"""Witness search on pinned models and randomized consistency checks."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import cramer_positive_row, det_rows, fraction_inverse, rand_matrix
from lgphase import (
    DimensionMismatch,
    EmptyMatrix,
    IntMatrix,
    InternalCheckFailed,
    NotNegativeCone,
    RatMatrix,
    SingularChoice,
    candidate_columns,
    check_superpotential_invariance,
    check_witness,
    enumerate_phases,
    make_charge_matrix,
    vev_split,
)
from lgphase import linalg, phases

TWOLG = [[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]]
RWP4 = [[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]]
KP1P1 = [[1, 1, 0, 0, -2], [0, 0, 1, 1, -2]]


def frac_rows(rows):
    return RatMatrix([[Fraction(e) for e in row] for row in rows])


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


def checked(cm, chosen):
    """What :func:`check_witness` says, in the oracle's terms."""
    try:
        return ("witness", check_witness(cm, chosen).row_reduced)
    except SingularChoice:
        return ("singular",)
    except NotNegativeCone as e:
        return ("reject", e.row, e.col)


def oracle_phases(cm, prune):
    pool = candidate_columns(cm) if prune else range(cm.num_fields)
    found = []
    for combo in combinations(pool, cm.rank):
        verdict = cramer_check(cm, combo)
        if verdict[0] == "witness":
            found.append((combo, verdict[1]))
    return found


def awkward_matrices(seed, count):
    """Small random charge matrices, many with zero or repeated columns or
    dependent rows, so that singular subsets and rank deficiency are common."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rho = rng.randint(1, 4)
        rows = [[rng.randint(-2, 2) for _ in range(rng.randint(rho, rho + 5))]]
        rows += [[rng.randint(-2, 2) for _ in rows[0]] for _ in range(rho - 1)]
        n = len(rows[0])
        if n > 1 and rng.random() < 0.4:
            j, k = rng.sample(range(n), 2)
            zero = rng.random() < 0.5
            for row in rows:
                row[k] = 0 if zero else row[j]
        if rho > 1 and rng.random() < 0.3:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]
        if any(any(row) for row in rows):
            out.append(make_charge_matrix(rows))
    return out


class TestChargeMatrix:
    def test_fields_and_rank(self):
        cm = make_charge_matrix(TWOLG)
        assert cm.rho == 2
        assert cm.num_fields == 6
        assert cm.rank == 2

    def test_reduced_saturates(self):
        cm = make_charge_matrix([[2, 2, -4]])
        assert cm.reduced == IntMatrix([[1, 1, -2]])

    def test_reduced_orders_rows(self):
        cm = make_charge_matrix(TWOLG)
        assert cm.reduced == IntMatrix([[1, 0, 0, 0, -2, 0], [0, 1, 1, 1, 1, -4]])

    def test_accepts_int_matrix(self):
        cm = make_charge_matrix(IntMatrix(TWOLG))
        assert cm.matrix == IntMatrix(TWOLG)

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrix):
            make_charge_matrix([])
        with pytest.raises(EmptyMatrix):
            make_charge_matrix([[]])

    def test_basis_map_reconstructs(self):
        rng = random.Random(81)
        for _ in range(20):
            rows = rng.randint(1, 3)
            cols = rng.randint(rows, 6)
            m = rand_matrix(rng, rows, cols, 4)
            if all(all(e == 0 for e in r) for r in m.rows):
                continue
            cm = make_charge_matrix(m)
            assert cm.basis_map * cm.reduced.to_rational() == m.to_rational()


    def test_basis_map_mismatch_raises(self, monkeypatch):
        # the reconstruction check is not an assert, so it survives python -O
        cm = make_charge_matrix(TWOLG)
        exact = linalg.invert_rational
        monkeypatch.setattr(
            linalg, "invert_rational", lambda m: exact(m) * frac_rows([[2, 0], [0, 1]])
        )
        with pytest.raises(InternalCheckFailed):
            cm.basis_map


class TestCandidates:
    def test_twolg(self):
        assert candidate_columns(make_charge_matrix(TWOLG)) == (0, 4, 5)

    def test_rwp4(self):
        assert candidate_columns(make_charge_matrix(RWP4)) == (5, 6)

    def test_kp1p1_single_candidate(self):
        assert candidate_columns(make_charge_matrix(KP1P1)) == (4,)

    def test_zero_column_excluded(self):
        cm = make_charge_matrix([[1, 0, -1]])
        assert 1 not in candidate_columns(cm)

    def test_repeats_excluded_pairwise(self):
        cm = make_charge_matrix([[3, 3, -1]])
        assert candidate_columns(cm) == (2,)


class TestCheckWitness:
    def test_twolg_first_phase(self):
        cm = make_charge_matrix(TWOLG)
        w = check_witness(cm, (0, 5))
        assert w.chosen == (0, 5)
        assert w.vev_block == IntMatrix([[1, 0], [0, -4]])
        assert w.row_reduced == frac_rows(
            [[1, 0, 0, 0, -2, 0],
             [0, Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4), 1]]
        )

    def test_twolg_second_phase(self):
        cm = make_charge_matrix(TWOLG)
        w = check_witness(cm, (4, 5))
        assert w.row_reduced == frac_rows(
            [[Fraction(-1, 2), 0, 0, 0, 1, 0],
             [Fraction(-1, 8), Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4), 0, 1]]
        )

    def test_rwp4_witness(self):
        cm = make_charge_matrix(RWP4)
        w = check_witness(cm, (5, 6))
        assert w.row_reduced == frac_rows(
            [[Fraction(-1, 2), Fraction(-1, 2), 0, 0, 0, 1, 0],
             [Fraction(-1, 8), Fraction(-1, 8), Fraction(-1, 4), Fraction(-1, 4),
              Fraction(-1, 4), 0, 1]]
        )

    def test_order_and_duplicates_rejected(self):
        cm = make_charge_matrix(TWOLG)
        with pytest.raises(ValueError):
            check_witness(cm, (5, 5))
        with pytest.raises(ValueError):
            check_witness(cm, (0, 9))
        with pytest.raises(ValueError):
            check_witness(cm, (0,))

    def test_singular_choice(self):
        cm = make_charge_matrix(KP1P1)
        with pytest.raises(SingularChoice):
            check_witness(cm, (0, 1))

    def test_negative_cone_failure_reports_entry(self):
        cm = make_charge_matrix(TWOLG)
        with pytest.raises(NotNegativeCone) as exc:
            check_witness(cm, (0, 1))
        assert 0 <= exc.value.row < 2
        assert exc.value.col not in (0, 1)

    def test_agrees_with_cramer_oracle(self):
        for cm in awkward_matrices(seed=5, count=60):
            for combo in combinations(range(cm.num_fields), cm.rank):
                assert checked(cm, combo) == cramer_check(cm, combo), (cm.matrix, combo)

    def test_witness_coord_columns(self):
        cm = make_charge_matrix(TWOLG)
        w = check_witness(cm, (4, 5))
        assert w.coord_columns == (0, 1, 2, 3)


class TestEnumerate:
    def test_twolg_two_phases(self):
        ws = enumerate_phases(make_charge_matrix(TWOLG))
        assert [w.chosen for w in ws] == [(0, 5), (4, 5)]

    def test_rwp4_single_phase(self):
        ws = enumerate_phases(make_charge_matrix(RWP4))
        assert [w.chosen for w in ws] == [(5, 6)]

    def test_kp1p1_none(self):
        assert enumerate_phases(make_charge_matrix(KP1P1)) == []

    def test_line_bundle_on_point(self):
        ws = enumerate_phases(make_charge_matrix([[-2]]))
        assert [w.chosen for w in ws] == [(0,)]

    def test_one_row_example(self):
        ws = enumerate_phases(make_charge_matrix([[1, 1, -2]]))
        assert [w.chosen for w in ws] == [(2,)]

    def test_prune_agrees_with_full_search(self):
        rng = random.Random(91)
        for _ in range(40):
            rows = rng.randint(1, 2)
            cols = rng.randint(rows, 5)
            m = rand_matrix(rng, rows, cols, 3)
            if all(all(e == 0 for e in r) for r in m.rows):
                continue
            cm = make_charge_matrix(m)
            fast = [(w.chosen, w.row_reduced) for w in enumerate_phases(cm)]
            slow = [(w.chosen, w.row_reduced) for w in enumerate_phases(cm, prune=False)]
            assert fast == slow

    def test_agrees_with_cramer_oracle(self):
        for cm in awkward_matrices(seed=13, count=150):
            expected = oracle_phases(cm, prune=False)
            assert oracle_phases(cm, prune=True) == expected
            for prune in (True, False):
                got = [(w.chosen, w.row_reduced) for w in enumerate_phases(cm, prune)]
                assert got == expected, (cm.matrix, prune)

    def test_moment_curve_one_pivot_per_subset(self, monkeypatch):
        # columns (1, t, ..., t^4): every 5-subset is nonsingular, and none is
        # a witness, since every column has the same sign in the first row
        cm = make_charge_matrix([[t ** k for t in range(1, 13)] for k in range(5)])
        assert len(candidate_columns(cm)) == 12
        counts = {"pivots": 0, "checks": 0}
        exchange, check = linalg._exchange, phases.check_witness

        def counting_exchange(*args):
            counts["pivots"] += 1
            return exchange(*args)

        def counting_check(*args):
            counts["checks"] += 1
            return check(*args)

        monkeypatch.setattr(linalg, "_exchange", counting_exchange)
        monkeypatch.setattr(phases, "check_witness", counting_check)
        assert enumerate_phases(cm) == []
        # one factorization of the first block (5 pivots), then one pivot per subset
        assert counts == {"pivots": 5 + comb(12, 5) - 1, "checks": 0}

    def test_check_witness_runs_once_per_witness(self, monkeypatch):
        calls = []
        check = phases.check_witness
        monkeypatch.setattr(
            phases, "check_witness", lambda cm, c: calls.append(tuple(sorted(c))) or check(cm, c)
        )
        ws = enumerate_phases(make_charge_matrix(TWOLG), prune=False)
        assert [w.chosen for w in ws] == [(0, 5), (4, 5)]
        assert sorted(calls) == [(0, 5), (4, 5)]

    def test_witnesses_expose_charge(self):
        cm = make_charge_matrix(TWOLG)
        for w in enumerate_phases(cm):
            assert w.charge is cm


class TestSuperpotential:
    def test_kernel_monomial_passes(self):
        cm = make_charge_matrix(TWOLG)
        # charge of (2, 0, 0, 3, 1, 1) under both rows is zero
        assert check_superpotential_invariance(cm, [(2, 0, 0, 3, 1, 1)])

    def test_violation_detected(self):
        cm = make_charge_matrix(TWOLG)
        assert not check_superpotential_invariance(
            cm, [(2, 0, 0, 3, 1, 1), (1, 0, 0, 0, 0, 0)]
        )

    def test_length_mismatch(self):
        cm = make_charge_matrix(TWOLG)
        with pytest.raises(DimensionMismatch):
            check_superpotential_invariance(cm, [(1, 2)])

    def test_negative_exponent_rejected(self):
        cm = make_charge_matrix(TWOLG)
        with pytest.raises(ValueError):
            check_superpotential_invariance(cm, [(-1, 0, 0, 0, 0, 0)])


class TestVevSplit:
    def test_partition(self):
        cm = make_charge_matrix(TWOLG)
        w = check_witness(cm, (4, 5))
        vev, lg = vev_split(w)
        assert vev == (4, 5)
        assert lg == (0, 1, 2, 3)
        assert sorted(vev + lg) == list(range(6))
