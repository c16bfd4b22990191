"""Seeded model generation: determinism, structure, and budget handling."""

import pytest

import lgphase.generate
from conftest import cramer_positive_row, det_rows
from lgphase import (
    ATTEMPT_BUDGET,
    GeneratorConfig,
    IntMatrix,
    RejectionBudgetExceeded,
    SplitMix64,
    determinant,
    enumerate_phases,
    make_charge_matrix,
    random_lg_model,
    witness_of_construction,
)


def cramer_sampler(cfg):
    """Oracle for :func:`random_lg_model`: the same draws, accepted by Cramer signs."""
    rng = SplitMix64(cfg.seed)
    r, n = cfg.r, cfg.n
    for _ in range(ATTEMPT_BUDGET):
        block = [[rng.int_between(-cfg.entry_bound, cfg.entry_bound) for _ in range(r)]
                 for _ in range(r)]
        det = det_rows(block)
        if det:
            break
    cols = []
    for _ in range(n):
        for _ in range(ATTEMPT_BUDGET):
            c = [rng.int_between(-cfg.sample_bound, cfg.sample_bound) for _ in range(r)]
            if not cfg.allow_zero_columns and not any(c):
                continue
            if cramer_positive_row(block, det, c) is None:
                cols.append(c)
                break
    rows = [block[a] + [c[a] for c in cols] for a in range(r)]
    for _ in range(cfg.pad_dependent_rows):
        coeffs = [rng.int_between(-3, 3) for _ in rows]
        rows.append([sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(r + n)])
    return IntMatrix(rows, ncols=r + n)


class TestSplitMix64:
    def test_reference_output(self):
        assert SplitMix64(0).next_uint64() == 0xE220A8397B1DCDAF

    def test_streams_reproduce(self):
        a = SplitMix64(123456789)
        b = SplitMix64(123456789)
        assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]

    def test_seed_masked_to_64_bits(self):
        wide = SplitMix64((1 << 64) + 42)
        narrow = SplitMix64(42)
        assert wide.next_uint64() == narrow.next_uint64()

    def test_below_range_and_coverage(self):
        rng = SplitMix64(1)
        seen = set()
        for _ in range(200):
            v = rng.below(5)
            assert 0 <= v < 5
            seen.add(v)
        assert seen == {0, 1, 2, 3, 4}

    def test_below_one_is_zero(self):
        rng = SplitMix64(9)
        assert all(rng.below(1) == 0 for _ in range(10))

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below(0)

    def test_int_between_inclusive(self):
        rng = SplitMix64(2)
        values = {rng.int_between(-2, 2) for _ in range(200)}
        assert values == {-2, -1, 0, 1, 2}
        with pytest.raises(ValueError):
            rng.int_between(3, 2)


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(r=0, n=1)
        with pytest.raises(ValueError):
            GeneratorConfig(r=1, n=-1)
        with pytest.raises(ValueError):
            GeneratorConfig(r=1, n=1, entry_bound=0)
        with pytest.raises(ValueError):
            GeneratorConfig(r=1, n=1, sample_bound=0)
        with pytest.raises(ValueError):
            GeneratorConfig(r=1, n=1, pad_dependent_rows=-1)

    def test_frozen(self):
        cfg = GeneratorConfig(r=1, n=1)
        with pytest.raises(AttributeError):
            cfg.r = 2


class TestRandomModel:
    def test_pinned_model(self):
        m = random_lg_model(GeneratorConfig(r=2, n=3, seed=7))
        assert m == IntMatrix([[-3, -5, 2, 4, 2], [-5, -5, 2, 5, 2]])

    def test_deterministic(self):
        cfg = GeneratorConfig(r=3, n=4, seed=99)
        assert random_lg_model(cfg) == random_lg_model(cfg)

    def test_shape(self):
        for r, n, pad in [(1, 0, 0), (2, 3, 0), (3, 2, 2)]:
            cfg = GeneratorConfig(r=r, n=n, seed=5, pad_dependent_rows=pad)
            m = random_lg_model(cfg)
            assert m.shape == (r + pad, r + n)

    def test_block_nonsingular(self):
        for seed in range(20):
            m = random_lg_model(GeneratorConfig(r=3, n=2, seed=seed))
            block = m.select_columns((0, 1, 2))
            assert determinant(block) != 0

    def test_constructional_witness_checks(self):
        for seed in range(30):
            cfg = GeneratorConfig(r=2, n=3, seed=seed)
            m = random_lg_model(cfg)
            w = witness_of_construction(m, cfg)
            assert w.chosen == (0, 1)

    def test_witness_found_by_enumeration(self):
        for seed in range(15):
            cfg = GeneratorConfig(r=2, n=2, seed=seed, entry_bound=3, sample_bound=3)
            m = random_lg_model(cfg)
            chosen_sets = [w.chosen for w in enumerate_phases(make_charge_matrix(m))]
            assert (0, 1) in chosen_sets

    def test_no_zero_columns_by_default(self):
        for seed in range(40):
            cfg = GeneratorConfig(r=1, n=4, seed=seed, entry_bound=1, sample_bound=1)
            m = random_lg_model(cfg)
            for j in range(1, m.ncols):
                assert any(m[i, j] for i in range(m.nrows))

    def test_zero_columns_when_allowed(self):
        cfg = GeneratorConfig(r=1, n=3, seed=0, entry_bound=1, sample_bound=1,
                              allow_zero_columns=True)
        m = random_lg_model(cfg)
        assert any(
            all(m[i, j] == 0 for i in range(m.nrows)) for j in range(1, m.ncols)
        )

    def test_sign_pattern_single_row(self):
        # r = 1: columns must oppose the sign of the vacuum entry
        for seed in range(25):
            m = random_lg_model(GeneratorConfig(r=1, n=3, seed=seed))
            a = m[0, 0]
            for j in range(1, 4):
                assert a * m[0, j] <= 0


    def test_matches_cramer_sampler(self):
        for seed in range(150):
            cfg = GeneratorConfig(
                r=1 + seed % 4,
                n=seed % 5,
                seed=seed,
                entry_bound=1 + seed % 3,
                sample_bound=2 + seed % 4,
                allow_zero_columns=seed % 3 == 0,
                pad_dependent_rows=seed % 2,
            )
            assert random_lg_model(cfg) == cramer_sampler(cfg), cfg


class TestPadding:
    def test_padding_preserves_row_space(self):
        for seed in range(10):
            plain = GeneratorConfig(r=2, n=3, seed=seed)
            padded = GeneratorConfig(r=2, n=3, seed=seed, pad_dependent_rows=2)
            m0 = random_lg_model(plain)
            m1 = random_lg_model(padded)
            assert m1.rows[:2] == m0.rows
            cm0 = make_charge_matrix(m0)
            cm1 = make_charge_matrix(m1)
            assert cm1.reduced == cm0.reduced
            assert cm1.rank == 2

    def test_padded_enumeration_agrees(self):
        for seed in range(10):
            m0 = random_lg_model(GeneratorConfig(r=2, n=3, seed=seed))
            m1 = random_lg_model(GeneratorConfig(r=2, n=3, seed=seed,
                                                 pad_dependent_rows=1))
            w0 = [w.chosen for w in enumerate_phases(make_charge_matrix(m0))]
            w1 = [w.chosen for w in enumerate_phases(make_charge_matrix(m1))]
            assert w0 == w1


class TestBudget:
    def test_budget_constant_exported(self):
        assert ATTEMPT_BUDGET == lgphase.generate.ATTEMPT_BUDGET == 10_000

    def test_exhaustion_raises_with_budget(self, monkeypatch):
        monkeypatch.setattr(lgphase.generate, "ATTEMPT_BUDGET", 1)
        cfg = GeneratorConfig(r=1, n=1, seed=0, entry_bound=1, sample_bound=1)
        with pytest.raises(RejectionBudgetExceeded) as exc:
            random_lg_model(cfg)
        assert exc.value.budget == 1

    def test_budget_restored(self):
        # the monkeypatch above must not leak into this test
        m = random_lg_model(GeneratorConfig(r=1, n=1, seed=0, entry_bound=1,
                                            sample_bound=1))
        assert m.shape == (1, 2)
