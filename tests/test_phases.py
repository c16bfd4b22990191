"""Witness search on pinned models and randomized consistency checks."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import cramer_check, oracle_phases, rand_matrix, revolving_door, subset_walk
from lgphase import (
    DimensionMismatch,
    EmptyMatrix,
    IntMatrix,
    NotNegativeCone,
    RatMatrix,
    SingularChoice,
    candidate_columns,
    check_superpotential_invariance,
    check_witness,
    enumerate_phases,
    make_charge_matrix,
)
from lgphase import linalg, phases

TWOLG = [[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]]
RWP4 = [[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]]
KP1P1 = [[1, 1, 0, 0, -2], [0, 0, 1, 1, -2]]


MOMENT_CURVE = [[t ** k for t in range(1, 13)] for k in range(5)]


def frac_rows(rows):
    return RatMatrix([[Fraction(e) for e in row] for row in rows])


def checked(cm, chosen):
    """What :func:`check_witness` says, in the oracle's terms."""
    try:
        return ("witness", check_witness(cm, chosen).row_reduced)
    except SingularChoice:
        return ("singular",)
    except NotNegativeCone as e:
        return ("reject", e.row, e.col)


def count_pivots_and_checks(monkeypatch):
    """Counts of :func:`lgphase.linalg._exchange` and :func:`check_witness` calls from now on."""
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
    return counts


def planted_model(rng, r, n_fields):
    """``(R | -R C)`` for a nonsingular ``r x r`` block ``R`` and ``C`` in ``[0, 2]``:
    ``{0, ..., r-1}`` is a witness by construction."""
    while True:
        block = rand_matrix(rng, r, r, 3)
        if linalg.determinant(block):
            break
    rows = [list(row) for row in block.rows]
    for _ in range(n_fields - r):
        c = [rng.randint(0, 2) for _ in range(r)]
        for row in rows:
            row.append(-sum(x * k for x, k in zip(row, c)))
    return rows


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
            slow = [(w.chosen, w.row_reduced) for w in subset_walk(cm)]
            assert fast == slow

    def test_agrees_with_cramer_oracle(self):
        for cm in awkward_matrices(seed=13, count=150):
            expected = oracle_phases(cm, prune=False)
            assert oracle_phases(cm, prune=True) == expected
            for search in (enumerate_phases, subset_walk):
                got = [(w.chosen, w.row_reduced) for w in search(cm)]
                assert got == expected, (cm.matrix, search.__name__)

    def test_revolving_door_order(self):
        assert list(revolving_door(4, 2)) == [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]
        for n in range(7):
            for t in range(n + 2):
                walk = list(revolving_door(n, t))
                assert sorted(walk) == list(combinations(range(n), t))
                assert all(len(set(a) - set(b)) == 1 for a, b in zip(walk, walk[1:]))

    def test_moment_curve_one_pivot_per_subset(self, monkeypatch):
        # columns (1, t, ..., t^4): every 5-subset is nonsingular, and none is
        # a witness, since every column has the same sign in the first row
        cm = make_charge_matrix(MOMENT_CURVE)
        counts = count_pivots_and_checks(monkeypatch)
        assert subset_walk(cm) == []
        # one factorization of the first block (5 pivots), then one pivot per subset
        assert counts == {"pivots": 5 + comb(12, 5) - 1, "checks": 0}

    def test_moment_curve_gale_search_pivots(self, monkeypatch):
        # the positive first row makes the Gale cone not pointed: the tableau
        # (5 pivots) and one LP pivot decide, with no subset tried
        cm = make_charge_matrix(MOMENT_CURVE)
        assert len(candidate_columns(cm)) == 12
        counts = count_pivots_and_checks(monkeypatch)
        assert enumerate_phases(cm) == []
        assert counts["checks"] == 0
        assert counts["pivots"] <= cm.rank + cm.num_fields
        assert counts["pivots"] == 6

    @pytest.mark.parametrize("r, n_fields", [(8, 20), (12, 30)])
    def test_planted_gale_search_pivots(self, monkeypatch, r, n_fields):
        # C(20, 8) = 125 970 and C(30, 12) = 86 493 225 subsets for the walk;
        # the search takes the tableau, the LP, one pivot per scan and one
        # check_witness (r pivots) per witness
        cm = make_charge_matrix(planted_model(random.Random(r), r, n_fields))
        counts = count_pivots_and_checks(monkeypatch)
        ws = enumerate_phases(cm)
        assert tuple(range(r)) in [w.chosen for w in ws]
        assert counts["checks"] == len(ws)
        assert counts["pivots"] <= 2 * (cm.rank + cm.num_fields) + cm.rank * len(ws)

    def test_planted_gale_search_equals_walk(self):
        for seed in range(3):
            cm = make_charge_matrix(planted_model(random.Random(seed), 5, 12))
            fast = [(w.chosen, w.row_reduced) for w in enumerate_phases(cm)]
            slow = [(w.chosen, w.row_reduced) for w in subset_walk(cm)]
            assert fast == slow and fast

    def test_check_witness_runs_once_per_witness(self, monkeypatch):
        calls = []
        check = phases.check_witness
        monkeypatch.setattr(
            phases, "check_witness", lambda cm, c: calls.append(tuple(sorted(c))) or check(cm, c)
        )
        ws = enumerate_phases(make_charge_matrix(TWOLG))
        assert [w.chosen for w in ws] == [(0, 5), (4, 5)]
        assert sorted(calls) == [(0, 5), (4, 5)]

    def test_witnesses_expose_charge(self):
        cm = make_charge_matrix(TWOLG)
        for w in enumerate_phases(cm):
            assert w.charge is cm


class TestPositiveRelation:
    """The LP of the Gale search on a model whose ratio test ties.

    At a pivot of this model two rows reach the least ratio.  Bland's rule
    lets the row holding the smaller column leave, and the LP ends on the
    point pinned here; letting the first tied row leave ends on
    ``(3, 9, 3, 6)`` instead.  Any valid point would do for the search, so
    the pin guards the tie-break, which keeps the LP from cycling.
    """

    TIE = [[-2, 0, -2, 0, 1, 1, 0], [-1, -1, 1, 0, 0, -1, 2], [-1, -1, -1, 2, 2, -1, -1]]

    def test_tie_broken_by_bland_rule(self):
        cm = make_charge_matrix(self.TIE)
        t, p, basis = linalg._eliminate(cm.reduced.rows, cm.pivot_columns)
        free = [j for j in range(cm.num_fields) if j not in basis]
        psi = phases._positive_relation(t, p, basis, free)
        assert psi == [12, 4, 12, 8]
        # psi extends to a point of ker Q that is positive on every column
        x = dict(zip(free, psi))
        for row, b in zip(t, basis):
            x[b] = Fraction(-sum(row[f] * x[f] for f in free), p)
        point = [x[j] for j in range(cm.num_fields)]
        assert all(e > 0 for e in point)
        assert all(sum(q * e for q, e in zip(row, point)) == 0 for row in self.TIE)
        assert enumerate_phases(cm) == subset_walk(cm) == []


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

    @pytest.mark.parametrize("monomial", [(2.7, 0, 1), (2.0, 0, 1), (True, True, 1)])
    def test_float_and_bool_exponents_rejected(self, monomial):
        # exponents follow the rule for matrix entries; int() would read
        # (2.7, 0, 1) as the invariant (2, 0, 1)
        with pytest.raises(TypeError):
            check_superpotential_invariance(make_charge_matrix([[1, 1, -2]]), [monomial])

