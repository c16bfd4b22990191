"""Level lifts, moment polyhedra, and phase cone membership."""

import random
from fractions import Fraction

import pytest

from conftest import fraction_inverse, fraction_solve, rand_matrix
from lgphase import (
    GeneratorConfig,
    BOUNDARY,
    DimensionMismatch,
    INTERIOR,
    IntMatrix,
    LevelNotInImage,
    NotInterior,
    OUTSIDE,
    check_witness,
    enumerate_phases,
    is_in_phase_cone,
    lift_level,
    make_charge_matrix,
    moment_polyhedron,
    phase_cone,
    random_lg_model,
    verify_simplicial_cone,
    witness_of_construction,
)

TWOLG = [[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]]


def twolg_witness(chosen):
    return check_witness(make_charge_matrix(TWOLG), chosen)


class TestLiftLevel:
    def test_witness_support(self):
        cm = make_charge_matrix(TWOLG)
        w = check_witness(cm, (4, 5))
        lift = lift_level(cm, (-3, -2), witness=w)
        assert lift == (0, 0, 0, 0, Fraction(1), Fraction(1))

    def test_default_support_uses_pivots(self):
        cm = make_charge_matrix(TWOLG)
        lift = lift_level(cm, (-3, -2))
        assert lift == (Fraction(-2), Fraction(-3), 0, 0, 0, 0)

    def test_solves_original_system(self):
        cm = make_charge_matrix(TWOLG)
        for s in [(-3, -2), (0, 0), (5, 1)]:
            lift = lift_level(cm, s)
            for i, row in enumerate(cm.matrix.rows):
                assert sum(q * x for q, x in zip(row, lift)) == s[i]

    def test_half_charge_lift(self):
        cm = make_charge_matrix([[1, 1, -2]])
        w = check_witness(cm, (2,))
        assert lift_level(cm, (3,), witness=w) == (0, 0, Fraction(-3, 2))

    def test_level_outside_image(self):
        cm = make_charge_matrix([[1, 0], [0, 0]])
        with pytest.raises(LevelNotInImage):
            lift_level(cm, (0, 1))

    def test_level_outside_image_past_digit_limit(self):
        # the error carries no level, so no entry has to be printed
        cm = make_charge_matrix([[1, 1, -2], [2, 2, -4]])
        with pytest.raises(LevelNotInImage):
            lift_level(cm, (1, 10**5000))

    def test_wrong_length(self):
        cm = make_charge_matrix(TWOLG)
        with pytest.raises(DimensionMismatch):
            lift_level(cm, (1,))

    def test_float_rejected(self):
        cm = make_charge_matrix(TWOLG)
        with pytest.raises(TypeError):
            lift_level(cm, (0.5, 1))


def basis_map_coordinates(cm, support, s):
    """Coordinates of ``s`` on the ``support`` columns by the basis-map route.

    ``B = Q[:, piv] * reduced[:, piv]^-1`` carries the reduced rows onto
    ``Q``; ``s`` is solved against ``B`` and the result mapped through the
    inverse of ``reduced[:, support]``.  Local Fraction arithmetic only.
    Returns ``None`` when ``s`` is outside the image.
    """
    piv = cm.pivot_columns
    p_inv = fraction_inverse([[row[j] for j in piv] for row in cm.reduced.rows])
    b = [[sum(q[j] * p_inv[k][c] for k, j in enumerate(piv)) for c in range(cm.rank)]
         for q in cm.matrix.rows]
    _, sred = fraction_solve(b, s, cm.rank)
    if sred is None:
        return None
    inv = fraction_inverse([[row[j] for j in support] for row in cm.reduced.rows])
    return tuple(sum(a * x for a, x in zip(row, sred)) for row in inv)


def oracle_lift(cm, s, witness=None):
    support = cm.pivot_columns if witness is None else witness.chosen
    coords = basis_map_coordinates(cm, support, s)
    if coords is None:
        return None
    lift = [Fraction(0)] * cm.num_fields
    for j, c in zip(support, coords):
        lift[j] = c
    return tuple(lift)


def oracle_membership(w, s):
    coords = basis_map_coordinates(w.charge, w.chosen, s)
    if coords is None or any(c < 0 for c in coords):
        return OUTSIDE
    return BOUNDARY if any(c == 0 for c in coords) else INTERIOR


def sample_levels(rng, w):
    """Levels around the cone of ``w``: interior, boundary, outside, off the image."""
    q = w.charge.matrix
    levels = [tuple(rng.randint(-4, 4) for _ in range(q.nrows)) for _ in range(3)]
    for sign in (1, 1, 1, -1):
        coeffs = [Fraction(sign * rng.randint(0, 4), rng.randint(1, 3)) for _ in w.chosen]
        levels.append(tuple(
            sum(c * q[i, j] for c, j in zip(coeffs, w.chosen)) for i in range(q.nrows)
        ))
    return levels


def oracle_cases(rng, count):
    """Witnesses of random and generated models, a third of them rank-deficient."""
    cases = []
    while len(cases) < count:
        if rng.random() < 0.5:
            rows, cols = rng.randint(1, 3), rng.randint(2, 6)
            m = rand_matrix(rng, rows, cols, 3)
            if rng.random() < 0.4:
                k = rng.randint(-2, 2)
                m = IntMatrix(list(m.rows) + [tuple(k * e for e in m.row(0))])
            if not any(any(r) for r in m.rows):
                continue
            cases.extend(enumerate_phases(make_charge_matrix(m)))
        else:
            cfg = GeneratorConfig(r=rng.randint(1, 3), n=rng.randint(0, 3),
                                  seed=rng.randrange(10**6), pad_dependent_rows=rng.randint(0, 1))
            q = random_lg_model(cfg)
            cases.append(witness_of_construction(q, cfg))
    return cases


class TestBasisMapOracle:
    """Cone coordinates solved against ``Q`` equal the old basis-map route."""

    def test_lift_level_matches(self):
        rng = random.Random(171)
        deficient = outside = 0
        for w in oracle_cases(rng, 120):
            cm = w.charge
            deficient += cm.rank < cm.rho
            for s in sample_levels(rng, w):
                for witness in (w, None):
                    expected = oracle_lift(cm, s, witness)
                    if expected is None:
                        outside += 1
                        with pytest.raises(LevelNotInImage):
                            lift_level(cm, s, witness)
                    else:
                        assert lift_level(cm, s, witness) == expected
        assert deficient > 20 and outside > 20

    def test_membership_matches(self):
        rng = random.Random(172)
        seen = dict.fromkeys((INTERIOR, BOUNDARY, OUTSIDE), 0)
        for w in oracle_cases(rng, 120):
            for s in sample_levels(rng, w):
                expected = oracle_membership(w, s)
                assert is_in_phase_cone(w, s) == expected
                seen[expected] += 1
        assert min(seen.values()) > 20


class TestMomentPolyhedron:
    def test_shapes_and_offsets(self):
        cm = make_charge_matrix(TWOLG)
        w = check_witness(cm, (4, 5))
        mp = moment_polyhedron(cm, (-3, -2), witness=w)
        assert mp.kernel_basis.shape == (6, 4)
        assert len(mp.half_spaces) == 6
        for i, hs in enumerate(mp.half_spaces):
            assert hs.normal == tuple(Fraction(e) for e in mp.kernel_basis.row(i))
            assert hs.offset == mp.lift[i]

    def test_lift_consistency_on_random_levels(self):
        rng = random.Random(131)
        cm = make_charge_matrix(TWOLG)
        for _ in range(20):
            x = [rng.randint(-4, 4) for _ in range(6)]
            s = tuple(sum(q * v for q, v in zip(row, x)) for row in cm.matrix.rows)
            mp = moment_polyhedron(cm, s)
            for i, row in enumerate(cm.matrix.rows):
                assert sum(q * v for q, v in zip(row, mp.lift)) == s[i]

    def test_no_coordinates_left(self):
        cm = make_charge_matrix([[1, 0], [0, 1]])
        w = check_witness(cm, (0, 1))
        mp = moment_polyhedron(cm, (2, 3), witness=w)
        assert mp.kernel_basis.shape == (2, 0)
        assert [hs.normal for hs in mp.half_spaces] == [(), ()]
        assert [hs.offset for hs in mp.half_spaces] == [Fraction(2), Fraction(3)]


class TestMembership:
    def test_trichotomy_values(self):
        w = twolg_witness((4, 5))
        assert is_in_phase_cone(w, (-3, -2)) == INTERIOR
        assert is_in_phase_cone(w, (1, -2)) == BOUNDARY
        assert is_in_phase_cone(w, (0, 1)) == OUTSIDE

    def test_strings_are_plain(self):
        assert (INTERIOR, BOUNDARY, OUTSIDE) == ("interior", "boundary", "outside")

    def test_origin_on_boundary(self):
        w = twolg_witness((0, 5))
        assert is_in_phase_cone(w, (0, 0)) == BOUNDARY

    def test_generator_combinations_interior(self):
        rng = random.Random(141)
        for chosen in [(0, 5), (4, 5)]:
            w = twolg_witness(chosen)
            gens = phase_cone(w).generators
            for _ in range(10):
                c = [rng.randint(1, 5) for _ in range(gens.ncols)]
                s = tuple(
                    sum(c[j] * gens[i, j] for j in range(gens.ncols))
                    for i in range(gens.nrows)
                )
                assert is_in_phase_cone(w, s) == INTERIOR

    def test_cone_solution_memo_keeps_latest_level(self):
        w = twolg_witness((4, 5))
        cm = w.charge
        for k in range(1, 2001):
            assert is_in_phase_cone(w, (-k - 1, -k)) == INTERIOR
        assert list(cm._cone_solutions) == [((4, 5), (Fraction(-2001), Fraction(-2000)))]

    def test_disjoint_interiors(self):
        w1 = twolg_witness((0, 5))
        w2 = twolg_witness((4, 5))
        s = phase_cone(w1).interior_sample
        assert is_in_phase_cone(w1, s) == INTERIOR
        assert is_in_phase_cone(w2, s) == OUTSIDE


class TestPhaseCone:
    def test_twolg_generators(self):
        assert phase_cone(twolg_witness((0, 5))).generators == IntMatrix([[0, -4], [1, 0]])
        assert phase_cone(twolg_witness((4, 5))).generators == IntMatrix([[1, -4], [-2, 0]])

    def test_interior_samples(self):
        assert phase_cone(twolg_witness((0, 5))).interior_sample == (-4, 1)
        assert phase_cone(twolg_witness((4, 5))).interior_sample == (-3, -2)

    def test_full_rank_uses_original_columns(self):
        pc = phase_cone(twolg_witness((4, 5)))
        assert not pc.reduced_basis
        cm = make_charge_matrix(TWOLG)
        assert pc.generators.column(0) == cm.matrix.column(4)
        assert pc.generators.column(1) == cm.matrix.column(5)

    def test_rank_deficient_reports_reduced_basis(self):
        cm = make_charge_matrix([[1, 1, -2], [2, 2, -4]])
        w = check_witness(cm, (2,))
        pc = phase_cone(w)
        assert pc.reduced_basis
        assert pc.generators == IntMatrix([[-2]])
        # the sample still lives in the original charge space
        assert len(pc.interior_sample) == 2

    def test_orthant_cone(self):
        cm = make_charge_matrix([[1, 0], [0, 1]])
        pc = phase_cone(check_witness(cm, (0, 1)))
        assert pc.generators == IntMatrix.identity(2)
        assert pc.interior_sample == (1, 1)


class TestVerifySimplicial:
    def test_golden_witnesses_verify(self):
        for chosen in [(0, 5), (4, 5)]:
            w = twolg_witness(chosen)
            assert verify_simplicial_cone(w, phase_cone(w).interior_sample)

    def test_rwp4_verifies(self):
        cm = make_charge_matrix([[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]])
        w = check_witness(cm, (5, 6))
        assert verify_simplicial_cone(w, phase_cone(w).interior_sample)

    def test_requires_interior_point(self):
        w = twolg_witness((4, 5))
        with pytest.raises(NotInterior):
            verify_simplicial_cone(w, (1, -2))
        with pytest.raises(NotInterior):
            verify_simplicial_cone(w, (0, 1))

    def test_non_interior_level_past_digit_limit(self):
        w = twolg_witness((4, 5))
        with pytest.raises(NotInterior):
            verify_simplicial_cone(w, (-10**5000, 1))

    def test_no_coordinates_is_trivially_compact(self):
        cm = make_charge_matrix([[1, 0], [0, 1]])
        w = check_witness(cm, (0, 1))
        assert verify_simplicial_cone(w, (1, 2))

    def test_random_witnesses_verify(self):
        rng = random.Random(151)
        seen = 0
        while seen < 30:
            rows = rng.randint(1, 2)
            cols = rng.randint(rows + 1, 5)
            m = rand_matrix(rng, rows, cols, 3)
            if all(all(e == 0 for e in r) for r in m.rows):
                continue
            cm = make_charge_matrix(m)
            for w in enumerate_phases(cm):
                assert verify_simplicial_cone(w, phase_cone(w).interior_sample)
                seen += 1
