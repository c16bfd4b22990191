"""Residual group data: pinned models, oracles, and presentation invariance."""

import random
import sys
import tracemalloc
from itertools import permutations, product
from math import gcd, lcm

import pytest

from conftest import (
    axis_order_by_divisors,
    brute_canonical_torus_action,
    cokernel_order_bruteforce,
    rand_matrix,
    random_nonsingular,
    stacked_hermite,
    swap_fixes_all_rows,
    torus_subgroup_lattice,
)
from lgphase import (
    DimensionMismatch,
    IntMatrix,
    RankDeficientGaugeGroup,
    actions_equivalent,
    canonical_torus_action,
    check_witness,
    determinant,
    effective_factors,
    enumerate_phases,
    make_charge_matrix,
    orbifold_group,
)
from lgphase import linalg, orbifold

TWOLG = [[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]]
RWP4 = [[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]]


def witness(rows, chosen):
    return check_witness(make_charge_matrix(rows), chosen)


class TestOrbifoldGroup:
    def test_projective_line(self):
        od = orbifold_group(witness([[1, 1, -2]], (2,)))
        assert od.invariant_factors == (2,)
        assert od.action_exponents == IntMatrix([[1, 1]])
        assert od.group_order == 2
        assert od.num_coords == 2

    def test_twolg_small_phase(self):
        od = orbifold_group(witness(TWOLG, (0, 5)))
        assert od.invariant_factors == (1, 4)
        assert od.action_exponents == IntMatrix([[0, 0, 0, 0], [3, 3, 3, 3]])
        assert od.group_order == 4
        assert effective_factors(od) == (4,)

    def test_twolg_large_phase(self):
        od = orbifold_group(witness(TWOLG, (4, 5)))
        assert od.invariant_factors == (1, 8)
        assert od.action_exponents == IntMatrix([[0, 0, 0, 0], [7, 6, 6, 6]])
        assert effective_factors(od) == (8,)

    def test_rwp4(self):
        od = orbifold_group(witness(RWP4, (5, 6)))
        assert sorted(od.invariant_factors) == [1, 8]
        assert od.action_exponents == IntMatrix([[0, 0, 0, 0, 0], [7, 7, 6, 6, 6]])
        assert effective_factors(od) == (8,)

    def test_exponent_ranges(self):
        od = orbifold_group(witness(TWOLG, (4, 5)))
        for a, d in enumerate(od.invariant_factors):
            for e in od.action_exponents.row(a):
                assert 0 <= e < max(d, 1)

    def test_rank_deficient_rejected(self):
        w = witness([[1, 1, -2], [2, 2, -4]], (2,))
        with pytest.raises(RankDeficientGaugeGroup):
            orbifold_group(w)

    def test_group_order_matches_determinant(self):
        rng = random.Random(101)
        count = 0
        while count < 40:
            r = rng.randint(1, 3)
            cm_rows = random_nonsingular(rng, r, 4)
            extra = rand_matrix(rng, r, rng.randint(1, 3), 3)
            m = IntMatrix([list(a) + list(b) for a, b in zip(cm_rows.rows, extra.rows)])
            cm = make_charge_matrix(m)
            try:
                w = check_witness(cm, tuple(range(r)))
            except Exception:
                # most random choices fail the sign conditions; only the
                # successful ones carry a group to compare
                ws = enumerate_phases(cm)
                if not ws:
                    continue
                w = ws[0]
            od = orbifold_group(w)
            assert od.group_order == abs(determinant(w.vev_block))
            if od.group_order <= 48:
                assert od.group_order == cokernel_order_bruteforce(w.vev_block)
            count += 1


class TestCanonicalAction:
    def test_projective_line_lattice(self):
        od = orbifold_group(witness([[1, 1, -2]], (2,)))
        assert od.canonical_lattice == IntMatrix([[1, 1], [0, 2]])

    def test_twolg_phases_share_lattice(self):
        od1 = orbifold_group(witness(TWOLG, (0, 5)))
        od2 = orbifold_group(witness(TWOLG, (4, 5)))
        target = IntMatrix([[1, 1, 1, 1], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]])
        assert od1.canonical_lattice == target
        assert od2.canonical_lattice == target
        assert actions_equivalent(od1, od2)

    def test_trivial_action_is_identity_lattice(self):
        od = orbifold_group(witness([[-1, 1, 1]], (0,)))
        assert effective_factors(od) == ()
        assert od.canonical_lattice == IntMatrix.identity(2)

    def test_distinct_actions_differ(self):
        half = orbifold_group(witness([[1, 1, -2]], (2,)))
        trivial = orbifold_group(witness([[-1, 1, 1]], (0,)))
        assert not actions_equivalent(half, trivial)

    def test_reflexive(self):
        for rows, chosen in [(TWOLG, (0, 5)), (RWP4, (5, 6)), ([[1, 1, -2]], (2,))]:
            od = orbifold_group(witness(rows, chosen))
            assert actions_equivalent(od, od)

    def test_coordinate_count_mismatch(self):
        od1 = orbifold_group(witness([[1, 1, -2]], (2,)))
        od2 = orbifold_group(witness(TWOLG, (0, 5)))
        with pytest.raises(DimensionMismatch):
            actions_equivalent(od1, od2)


class TestTorusSubgroup:
    def test_pinned_weight_lattice(self):
        m, lat = torus_subgroup_lattice([(1, 1, 2, 2, 2)], [8], 5)
        assert m == 8
        assert lat == IntMatrix(
            [[1, 1, 2, 2, 2], [0, 8, 0, 0, 0], [0, 0, 8, 0, 0],
             [0, 0, 0, 8, 0], [0, 0, 0, 0, 8]]
        )

    def test_rwp4_effective_action_matches_weights(self):
        od = orbifold_group(witness(RWP4, (5, 6)))
        rows = [od.action_exponents.row(a)
                for a, d in enumerate(od.invariant_factors) if d > 1]
        orders = [d for d in od.invariant_factors if d > 1]
        assert torus_subgroup_lattice(rows, orders, 5) == \
            torus_subgroup_lattice([(1, 1, 2, 2, 2)], [8], 5)

    def test_faithful_weights(self):
        # (1,1,2,2,2) mod 8 only dies at multiples of 8
        for k in range(1, 8):
            assert any((k * wgt) % 8 for wgt in (1, 1, 2, 2, 2))

    def test_redundant_generator_ignored(self):
        base = torus_subgroup_lattice([(1, 1, 2, 2, 2)], [8], 5)
        extra = torus_subgroup_lattice([(1, 1, 2, 2, 2), (2, 2, 4, 4, 4)], [8, 8], 5)
        assert extra == base

    def test_row_rescale_by_unit(self):
        base = torus_subgroup_lattice([(1, 1, 2, 2, 2)], [8], 5)
        # 3 is a unit mod 8, so the generated subgroup does not move
        assert torus_subgroup_lattice([(3, 3, 6, 6, 6)], [8], 5) == base

    def test_subgroups_differ_from_canonical_forms(self):
        # weights (1,2)/4 reduce to (1,1)/2 after rescaling the first
        # coordinate: distinct subgroups of the torus, same canonical form
        sub_a = torus_subgroup_lattice([(1, 2)], [4], 2)
        sub_b = torus_subgroup_lattice([(1, 1)], [2], 2)
        assert sub_a != sub_b
        assert canonical_torus_action([(1, 2)], [4], 2) == \
            canonical_torus_action([(1, 1)], [2], 2)

    def test_inequivalent_weights_stay_apart(self):
        # (1,3)/4 and (1,1)/4 are different orbifolds; neither admits a
        # coordinate rescale, so their canonical forms must differ
        assert canonical_torus_action([(1, 3)], [4], 2) != \
            canonical_torus_action([(1, 1)], [4], 2)


class TestCanonicalTorusAction:
    def test_equal_element_equal_form(self):
        # (2,2,2,2)/8 and (1,1,1,1)/4 are the same torus element
        assert canonical_torus_action([(2, 2, 2, 2)], [8], 4) == \
            canonical_torus_action([(1, 1, 1, 1)], [4], 4)

    def test_column_permutation_invariance(self):
        rng = random.Random(111)
        for _ in range(25):
            n = rng.randint(1, 4)
            order = rng.choice([2, 3, 4, 6, 8])
            row = [rng.randrange(order) for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [row[p] for p in perm]
            assert canonical_torus_action([row], [order], n) == \
                canonical_torus_action([permuted], [order], n)

    def test_generating_set_invariance(self):
        rng = random.Random(112)
        for _ in range(25):
            n = rng.randint(1, 3)
            orders = [rng.choice([2, 4, 8]) for _ in range(rng.randint(1, 2))]
            rows = [[rng.randrange(d) for _ in range(n)] for d in orders]
            base = canonical_torus_action(rows, orders, n)
            # shift a row by a full-period multiple
            shifted = [list(r) for r in rows]
            shifted[0] = [e + orders[0] * rng.randint(-2, 2) for e in shifted[0]]
            assert canonical_torus_action(shifted, orders, n) == base
            # append a power of an existing generator
            extra = rows + [[(2 * e) % orders[-1] for e in rows[-1]]]
            assert canonical_torus_action(extra, orders + [orders[-1]], n) == base

    def test_trivial_group(self):
        assert canonical_torus_action([], [], 3) == IntMatrix.identity(3)
        assert canonical_torus_action([(0, 0)], [1], 2) == IntMatrix.identity(2)

    @pytest.mark.parametrize("rows, orders, n", [
        ([(1, 1.9)], [4], 2),  # int() would read weights (1, 1)
        ([(1, 1)], [4.5], 2),  # and order 4
        ([(1, 1)], [4.0], 2),
        ([(True, 1)], [4], 2),
        ([(1, 1)], [True], 2),
        ([(1, 1)], [4], 2.0),
    ])
    def test_float_and_bool_entries_rejected(self, rows, orders, n):
        with pytest.raises(TypeError):
            canonical_torus_action(rows, orders, n)


class TestPresentationInvariance:
    """The group data must not depend on which diagonalization was found."""

    def _alternative_exponents(self, rng, od, vev_block):
        # any unimodular W with D W D^-1 integral yields another valid
        # diagonalization; ascending divisibility makes every upper
        # triangular unimodular W (with equal-factor swaps) admissible
        k = len(od.invariant_factors)
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            rows[i][i] = rng.choice([1, -1])
            for j in range(i + 1, k):
                rows[i][j] = rng.randint(-2, 2)
        for i in range(k - 1):
            if od.invariant_factors[i] == od.invariant_factors[i + 1] and rng.random() < 0.5:
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
        w = IntMatrix(rows)
        assert abs(determinant(w)) == 1
        new = w * od.action_exponents
        return IntMatrix(
            [[e % d if d else e for e in new.row(a)]
             for a, d in enumerate(od.invariant_factors)]
        )

    def test_recombined_rows_same_subgroup(self):
        rng = random.Random(121)
        cases = [(TWOLG, (0, 5)), (TWOLG, (4, 5)), (RWP4, (5, 6))]
        for rows, chosen in cases:
            w = witness(rows, chosen)
            od = orbifold_group(w)
            gen_rows = [od.action_exponents.row(a)
                        for a in range(len(od.invariant_factors))]
            orders = list(od.invariant_factors)
            base_sub = torus_subgroup_lattice(gen_rows, orders, od.num_coords)
            base_can = canonical_torus_action(gen_rows, orders, od.num_coords)
            for _ in range(10):
                alt = self._alternative_exponents(rng, od, w.vev_block)
                alt_rows = [alt.row(a) for a in range(alt.nrows)]
                assert torus_subgroup_lattice(alt_rows, orders, od.num_coords) == base_sub
                assert canonical_torus_action(alt_rows, orders, od.num_coords) == base_can


def random_action(rng, max_coords):
    """Exponent rows and orders of a random action; half the draws repeat weights."""
    n = rng.randint(1, max_coords)
    orders = [rng.choice([2, 3, 4, 5, 6, 8, 12, 60]) for _ in range(rng.randint(1, 3))]
    repeated = rng.random() < 0.5
    rows = []
    for d in orders:
        pool = [rng.randrange(d) for _ in range(2 if repeated else n)]
        rows.append(tuple(rng.choice(pool) for _ in range(n)))
    return rows, orders, n


class TestCanonicalFormOracle:
    """The pruned search returns the brute-force minimum, in few Hermite forms.

    Each action takes two Hermite forms for its axis scales and no inverse,
    then one Hermite form per arrangement searched other than the identity.
    """

    def test_matches_brute_force(self):
        rng = random.Random(131)
        for _ in range(300):
            rows, orders, n = random_action(rng, 7)
            assert canonical_torus_action(rows, orders, n) == \
                brute_canonical_torus_action(rows, orders, n)

    @pytest.mark.parametrize("rows, orders", [
        ([(1, 1, 0, 0), (0, 0, 1, 1)], [2, 2]),  # K over P^1 x P^1
        ([(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)], [3, 3]),  # K over P^2 x P^2
        ([(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)], [2, 2, 2]),
        ([(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 3)], [2, 2, 4]),
        ([(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)], [5, 5, 5]),
        # equal blocks that do not swap wholesale
        ([(1, 1, 2, 2)], [5]),
        ([(1, 1, 2, 2, 3, 3)], [7]),
    ])
    def test_products_match_brute_force(self, rows, orders):
        # whole summands swap by a lattice automorphism; shuffled columns
        # and unit multiples of the rows must not move the form
        rng = random.Random(132)
        n = len(rows[0])
        for _ in range(4):
            perm = rng.sample(range(n), n)
            units = [rng.choice([u for u in range(1, d) if gcd(u, d) == 1] or [1]) for d in orders]
            moved = [tuple(u * row[p] for p in perm) for row, u in zip(rows, units)]
            assert canonical_torus_action(moved, orders, n) == \
                brute_canonical_torus_action(moved, orders, n)

    @pytest.mark.parametrize(
        "rows, orders, n, forms",
        [
            ([(1,) * 10], [10], 10, 2),  # K over P^9: one block of ten
            ([(1, 1)], [10**20 + 39], 2, 2),  # Z_D past trial division
            # K over P^3 x P^3: two blocks in one class that swap wholesale,
            # C(8, 4) / 2 arrangements
            ([(1, 1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1)], [4, 4], 8, 36),
        ],
    )
    def test_hermite_calls_capped(self, monkeypatch, rows, orders, n, forms):
        calls = {"hermite_normal_form": 0, "invert_rational": 0}
        for name in calls:
            def counted(m, _fn=getattr(linalg, name), _name=name):
                calls[_name] += 1
                return _fn(m)
            monkeypatch.setattr(linalg, name, counted)
        lattice = canonical_torus_action(rows, orders, n)
        assert calls == {"hermite_normal_form": forms, "invert_rational": 0}
        assert lattice.shape == (n, n)


class TestIntegerSteps:
    """The integer axis orders and the generator-only swap test against their oracles."""

    def test_axis_order_matches_divisor_scan(self):
        rng = random.Random(141)
        for _ in range(200):
            rows, orders, n = random_action(rng, 7)
            m0, h0 = stacked_hermite(rows, orders, n)
            divisors = [k for k in range(1, m0 + 1) if m0 % k == 0]
            for j in range(n):
                assert orbifold._axis_order(h0.rows, j) == axis_order_by_divisors(h0, j, divisors)

    @pytest.mark.parametrize("rows, orders", [
        ([(1, 1)], [10**20 + 39]),
        ([(1, 1, 0), (0, 3, 1)], [10**20 + 39, 4]),
        ([(1, 2, 2), (0, 1, 1)], [4 * (10**20 + 39), 2]),
    ])
    def test_axis_order_past_trial_division(self, rows, orders):
        # m0 = 4 * P with P = 10**20 + 39 prime, so its divisors are known
        # without a scan to sqrt(m0)
        big = 10**20 + 39
        m0, h0 = stacked_hermite(rows, orders, len(rows[0]))
        divisors = sorted(a * b for a in (1, 2, 4) for b in (1, big) if m0 % (a * b) == 0)
        for j in range(h0.ncols):
            assert orbifold._axis_order(h0.rows, j) == axis_order_by_divisors(h0, j, divisors)

    def test_generator_swap_test_matches_all_rows(self):
        rng = random.Random(142)
        verdicts = set()
        for _ in range(200):
            rows, orders, n = random_action(rng, 7)
            if lcm(*orders) == 1:
                continue
            m, base, gens = orbifold._rescaled_lattice(rows, orders, n)
            for i in range(n):
                for j in range(i + 1, n):
                    fixed = orbifold._swap_fixes(base, gens, [i], [j])
                    assert fixed == swap_fixes_all_rows(base, i, j)
                    verdicts.add(fixed)
        assert verdicts == {True, False}


def arrangement_walk(rows, orders, n):
    """``(base, classes, walk)`` of a nontrivial action: its rescaled Hermite
    basis, its equal-order classes read off that basis, and the search's walk."""
    m, base, gens = orbifold._rescaled_lattice(rows, orders, n)
    proj = [m // gcd(m, *(row[j] for row in base.rows)) for j in range(n)]
    classes = [[j for j in range(n) if proj[j] == o] for o in sorted(set(proj), reverse=True)]
    return base, classes, orbifold._arrangements(base, gens, classes)


def readme_product(k):
    """The Z4^k action of ``k`` disjoint copies of the README model's Z4 phase."""
    n = 4 * k
    return [tuple(int(j // 4 == a) for j in range(n)) for a in range(k)], [4] * k, n


class TestArrangementWalk:
    """The lazy walk of the permutation search: complete, without repeats, and in bounded memory."""

    def test_reaches_every_form(self):
        # the Hermite forms over the walk are those over every permutation
        # inside each class, though the walk is far shorter on most draws
        rng = random.Random(151)
        pruned = 0
        for _ in range(200):
            rows, orders, n = random_action(rng, 6)
            if orbifold._rescaled_lattice(rows, orders, n)[0] == 1:
                continue
            base, classes, walk = arrangement_walk(rows, orders, n)
            walk = list(walk)
            every = {tuple(j for p in arr for j in p)
                     for arr in product(*(permutations(c) for c in classes))}
            assert len(set(walk)) == len(walk)
            assert set(walk) <= every
            assert {linalg.hermite_normal_form(base.select_columns(c)) for c in walk} == \
                {linalg.hermite_normal_form(base.select_columns(c)) for c in every}
            pruned += len(walk) < len(every)
        assert pruned > 100

    def test_readme_product_count(self):
        # one class of three swap blocks of four that swap wholesale:
        # 12! / (4!^3 * 3!) label sequences
        base, classes, walk = arrangement_walk(*readme_product(3))
        assert [len(c) for c in classes] == [12]
        assert sum(1 for _ in walk) == 5775

    def test_walk_is_lazy(self):
        # k = 4 keeps 2 627 625 arrangements; the first ten thousand must
        # come without the rest being held
        tracemalloc.start()
        try:
            walk = arrangement_walk(*readme_product(4))[2]
            for _ in zip(range(10_000), walk):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_walk_deeper_than_the_recursion_limit(self):
        # K over P^(n-1) with n past the interpreter's recursion limit: one
        # block, so one arrangement, the identity, from a walk that keeps
        # its positions in a list rather than on the call stack
        n = sys.getrecursionlimit() + 100
        base = IntMatrix(((1,) * n, *(tuple(n * (i == j) for j in range(n)) for i in range(1, n))), ncols=n)
        walk = orbifold._arrangements(base, [(1,) * n], [list(range(n))])
        assert list(walk) == [tuple(range(n))]
