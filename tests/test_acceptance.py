"""Acceptance gate: ten exact criteria, one printed verdict line each.

Every criterion is checked at exact equality; there are no tolerances in
this file.  Each test prints ``acceptance NN <name>: PASS`` or ``FAIL`` so
a full run reads as a checklist.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    cokernel_order_bruteforce,
    fraction_rank,
    rand_matrix,
    random_nonsingular,
    smith_factors,
    subset_walk,
    torus_subgroup_lattice,
)
from lgphase import (
    GeneratorConfig,
    IntMatrix,
    RatMatrix,
    actions_equivalent,
    candidate_columns,
    canonical_torus_action,
    determinant,
    effective_factors,
    enumerate_phases,
    integer_kernel,
    invert_rational,
    make_charge_matrix,
    orbifold_group,
    phase_cone,
    random_lg_model,
    smith_normal_form,
    verify_simplicial_cone,
    witness_of_construction,
)

TWOLG = [[0, 1, 1, 1, 1, -4], [1, 0, 0, 0, -2, 0]]
RWP4 = [[0, 0, 1, 1, 1, 1, -4], [1, 1, 0, 0, 0, -2, 0]]
KP1P1 = [[1, 1, 0, 0, -2], [0, 0, 1, 1, -2]]


@contextmanager
def verdict(capsys, number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_canonical_bundle_over_projective_space(capsys):
    with verdict(capsys, 1, "canonical bundle over projective spaces"):
        for m in range(1, 6):
            cm = make_charge_matrix([[1] * (m + 1) + [-(m + 1)]])
            ws = enumerate_phases(cm)
            assert len(ws) == 1
            w = ws[0]
            assert w.chosen == (m + 1,)
            expected = [Fraction(-1, m + 1)] * (m + 1) + [Fraction(1)]
            assert w.row_reduced == RatMatrix([expected])
            od = orbifold_group(w)
            assert effective_factors(od) == (m + 1,)
            assert od.group_order == m + 1
            if m == 1:
                # the residual group negates both coordinates
                assert od.action_exponents == IntMatrix([[1, 1]])


def test_criterion_02_canonical_bundle_over_p1_x_p1(capsys):
    with verdict(capsys, 2, "no affine phase for K over P1 x P1"):
        cm = make_charge_matrix(KP1P1)
        assert candidate_columns(cm) == (4,)
        assert enumerate_phases(cm) == []
        assert subset_walk(cm) == []


def test_criterion_03_resolved_weighted_projective_space(capsys):
    with verdict(capsys, 3, "resolved weighted projective space"):
        cm = make_charge_matrix(RWP4)
        ws = enumerate_phases(cm)
        assert [w.chosen for w in ws] == [(5, 6)]
        w = ws[0]
        assert w.row_reduced == RatMatrix([
            [Fraction(-1, 2), Fraction(-1, 2), 0, 0, 0, 1, 0],
            [Fraction(-1, 8), Fraction(-1, 8), Fraction(-1, 4), Fraction(-1, 4),
             Fraction(-1, 4), 0, 1],
        ])
        od = orbifold_group(w)
        assert sorted(od.invariant_factors) == [1, 8]
        assert effective_factors(od) == (8,)
        eff_rows = [od.action_exponents.row(a)
                    for a, d in enumerate(od.invariant_factors) if d > 1]
        eff_orders = [d for d in od.invariant_factors if d > 1]
        assert torus_subgroup_lattice(eff_rows, eff_orders, 5) == \
            torus_subgroup_lattice([(1, 1, 2, 2, 2)], [8], 5)


def test_criterion_04_two_phase_model_and_equivalence(capsys):
    with verdict(capsys, 4, "two-phase model with equivalent orbifolds"):
        cm = make_charge_matrix(TWOLG)
        ws = enumerate_phases(cm)
        assert [w.chosen for w in ws] == [(0, 5), (4, 5)]
        assert phase_cone(ws[0]).generators == IntMatrix([[0, -4], [1, 0]])
        assert phase_cone(ws[1]).generators == IntMatrix([[1, -4], [-2, 0]])
        od1, od2 = orbifold_group(ws[0]), orbifold_group(ws[1])
        assert effective_factors(od1) == (4,)
        assert effective_factors(od2) == (8,)
        assert actions_equivalent(od1, od2)
        common = canonical_torus_action([(1, 1, 1, 1)], [4], 4)
        assert od1.canonical_lattice == common
        assert od2.canonical_lattice == common


def test_criterion_05_smith_decomposition_suite(capsys):
    with verdict(capsys, 5, "Smith decomposition on 500 random matrices"):
        rng = random.Random(50001)
        oracle_hits = 0
        for _ in range(500):
            size = rng.randint(1, 6)
            m = random_nonsingular(rng, size, 10)
            dec = smith_normal_form(m)
            assert dec.d == dec.u * m * dec.v
            assert abs(determinant(dec.u)) == 1
            assert abs(determinant(dec.v)) == 1
            diag = dec.diagonal
            assert all(x > 0 for x in diag)
            assert all(diag[i + 1] % diag[i] == 0 for i in range(size - 1))
            order = 1
            for x in diag:
                order *= x
            assert order == abs(determinant(m))
            if order <= 64:
                assert order == cokernel_order_bruteforce(m)
                oracle_hits += 1
        assert oracle_hits >= 20


def test_criterion_06_saturated_kernel_suite(capsys):
    with verdict(capsys, 6, "saturated integer kernels on 500 random matrices"):
        rng = random.Random(60001)
        for i in range(500):
            rho = rng.randint(1, 4)
            cols = rng.randint(rho, 8)
            m = rand_matrix(rng, rho, cols, 6)
            if i % 4 == 0 and rho >= 2:
                # force rank deficiency: overwrite a row with a combination
                rows = [list(r) for r in m.rows]
                c = rng.randint(-2, 2)
                rows[-1] = [c * e for e in rows[0]]
                m = IntMatrix(rows, ncols=cols)
            k = integer_kernel(m)
            r = fraction_rank(m.rows)
            assert m * k == IntMatrix([[0] * k.ncols] * rho, ncols=k.ncols)
            assert k.ncols == cols - r
            if k.ncols:
                assert fraction_rank(k.rows) == k.ncols
                assert smith_factors(k) == (1,) * k.ncols


def test_criterion_07_criterion_matches_cone_oracle(capsys):
    with verdict(capsys, 7, "sign criterion agrees with the kernel-cone route"):
        goldens = [TWOLG, RWP4, KP1P1, [[1, 1, -2]], [[-2]]]
        goldens += [[[1] * (m + 1) + [-(m + 1)]] for m in range(1, 6)]
        for rows in goldens:
            cm = make_charge_matrix(rows)
            for w in enumerate_phases(cm):
                assert verify_simplicial_cone(w, phase_cone(w).interior_sample)

        rng = random.Random(70001)
        witnesses_seen = 0
        for _ in range(200):
            rho = rng.randint(1, 3)
            cols = rng.randint(rho + 1, 7)
            m = rand_matrix(rng, rho, cols, 4)
            if all(all(e == 0 for e in r) for r in m.rows):
                continue
            cm = make_charge_matrix(m)
            for w in enumerate_phases(cm):
                assert verify_simplicial_cone(w, phase_cone(w).interior_sample)
                witnesses_seen += 1

            # both routes compute the same matrix for any nonsingular choice,
            # so the sign test and the cone test imply one another
            red = cm.reduced
            r = cm.rank
            if red.ncols - r == 0:
                continue
            kern = integer_kernel(red)
            for _ in range(3):
                idx = tuple(sorted(rng.sample(range(red.ncols), r)))
                rest = tuple(j for j in range(red.ncols) if j not in idx)
                vev = red.select_columns(idx)
                if determinant(vev) == 0:
                    continue
                off = invert_rational(RatMatrix(vev.rows)) * \
                    RatMatrix(red.select_columns(rest).rows)
                coord = RatMatrix([[Fraction(kern[j, k]) for k in range(kern.ncols)]
                                   for j in rest])
                chosen_rows = RatMatrix([[Fraction(kern[j, k]) for k in range(kern.ncols)]
                                         for j in idx])
                dual = chosen_rows * invert_rational(coord)
                flipped = RatMatrix([[-e for e in row] for row in dual.rows])
                assert flipped == off
                neg_ok = all(e <= 0 for row in off.rows for e in row)
                pos_ok = all(e >= 0 for row in dual.rows for e in row)
                assert neg_ok == pos_ok
        assert witnesses_seen >= 20


def test_criterion_08_generator_soundness_at_scale(capsys):
    with verdict(capsys, 8, "10000 generated models carry their witness"):
        for i in range(10_000):
            cfg = GeneratorConfig(r=(i % 3) + 1, n=i % 6, seed=i,
                                  entry_bound=4, sample_bound=4)
            m = random_lg_model(cfg)
            w = witness_of_construction(m, cfg)
            assert w.chosen == tuple(range(cfg.r))
            chosen_sets = [x.chosen for x in enumerate_phases(make_charge_matrix(m))]
            assert tuple(range(cfg.r)) in chosen_sets
            assert random_lg_model(cfg) == m


def test_criterion_09_equivalence_across_phases_at_scale(capsys):
    with verdict(capsys, 9, "100 multi-phase models have equivalent orbifolds"):
        collected = 0
        seed = 0
        while collected < 100:
            assert seed < 3000, "multi-phase models appear too rarely"
            cfg = GeneratorConfig(r=(seed % 3) + 1, n=(seed % 5) + 1, seed=seed,
                                  entry_bound=4, sample_bound=4)
            m = random_lg_model(cfg)
            ws = enumerate_phases(make_charge_matrix(m))
            seed += 1
            if len(ws) < 2:
                continue
            ods = [orbifold_group(w) for w in ws]
            first = ods[0]
            for od in ods[1:]:
                assert actions_equivalent(first, od)
                assert od.canonical_lattice == first.canonical_lattice
            collected += 1


def test_criterion_10_robustness_suite(capsys):
    with verdict(capsys, 10, "padding, pruning, and duplicate robustness"):
        rng = random.Random(100001)
        for _ in range(200):
            rho = rng.randint(1, 3)
            cols = rng.randint(rho, 6)
            m = rand_matrix(rng, rho, cols, 4)
            if all(all(e == 0 for e in r) for r in m.rows):
                continue
            cm = make_charge_matrix(m)
            base = [(w.chosen, w.row_reduced) for w in enumerate_phases(cm)]

            # pruning must be an optimization, never a filter
            full = [(w.chosen, w.row_reduced) for w in subset_walk(cm)]
            assert base == full

            # appended dependent rows change nothing
            rows = [list(r) for r in m.rows]
            for _ in range(rng.randint(1, 2)):
                coeffs = [rng.randint(-3, 3) for _ in rows]
                rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                             for j in range(cols)])
            combo = rows[-1]
            g = math.gcd(*combo) if any(combo) else 0
            if g > 1:
                # a primitive rational combination is also invisible
                rows.append([e // g for e in combo])
            padded = make_charge_matrix(IntMatrix(rows, ncols=cols))
            assert padded.reduced == cm.reduced
            assert [(w.chosen, w.row_reduced) for w in enumerate_phases(padded)] == base

            # a duplicated column disqualifies both copies
            dup = rng.randrange(cols)
            dup_rows = [list(r) + [r[dup]] for r in m.rows]
            dup_cm = make_charge_matrix(IntMatrix(dup_rows, ncols=cols + 1))
            for search in (enumerate_phases, subset_walk):
                for w in search(dup_cm):
                    assert dup not in w.chosen
                    assert cols not in w.chosen
