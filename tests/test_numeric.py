import math

import numpy as np
import pytest
from scipy import special

from optex.criteria import SPD_TOL, _blocks_ok
from optex.numeric import f_quantile_table, sample_prior, spd_logdet_inverse

from evaluators import f_quantile, kernel_blocks
from oracles import dense_centered_info, f_cdf, f_quantile_bisection


def kernel_info(X):
    """M = X'(I - J/n)X read from the kernel's factor; None when it is singular."""
    blocks = kernel_blocks(X)
    return None if blocks is None else blocks[0]


class TestCenteredInfo:
    def test_balanced_column(self):
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        assert np.allclose(kernel_info(X), [[4.0]])

    def test_constant_column_annihilated(self):
        # M = 0: the kernel reports the singular information matrix
        X = np.full((6, 1), 3.0)
        assert kernel_info(X) is None
        assert np.allclose(dense_centered_info(X), [[0.0]])

    def test_orthogonal_two_level_factorial(self):
        X = np.array([[-1, -1, 1], [-1, 1, -1], [1, -1, -1], [1, 1, 1]], dtype=float)
        assert np.allclose(kernel_info(X), 4 * np.eye(3))

    def test_matches_dense_projector(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            p = int(rng.integers(1, 6))
            X = rng.normal(size=(n, p))
            if p > n - 1:  # rank of the centered columns is at most n - 1
                assert kernel_info(X) is None
            else:
                assert np.allclose(kernel_info(X), dense_centered_info(X), atol=1e-10)


def logdet(lower):
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


class TestSpdFactor:
    def test_identity(self):
        L = spd_logdet_inverse(np.eye(3))
        assert logdet(L) == pytest.approx(0.0)
        assert np.allclose(L, np.eye(3))

    def test_scaled_identity(self):
        L = spd_logdet_inverse(np.diag([4.0, 4.0, 4.0]))
        assert logdet(L) == pytest.approx(3 * math.log(4.0))

    def test_exactly_singular_flagged(self):
        assert spd_logdet_inverse(np.array([[1.0, 1.0], [1.0, 1.0]])) is None

    def test_near_singular_pivot_tolerance(self):
        # the factorisation succeeds; the SPD_TOL rule on its pivots rejects it
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        L = spd_logdet_inverse(A)
        m_ok, _ = _blocks_ok(np.diagonal(L) ** 2, SPD_TOL * np.diagonal(A), 2)
        assert not m_ok

    def test_zero_tol_leaves_the_pivot_rule_to_the_caller(self):
        # no tolerance inside the factorisation: the tiny pivot comes back
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        L = spd_logdet_inverse(A)
        assert L is not None
        assert L[1, 1] ** 2 <= SPD_TOL * 1.0

    def test_non_positive_diagonal_flagged(self):
        assert spd_logdet_inverse(np.array([[-1.0, 0.0], [0.0, 1.0]])) is None

    def test_inverse_round_trip_random_spd(self):
        # the inverse built from the factor's triangle: A^-1 = L^-T L^-1
        rng = np.random.default_rng(2)
        for _ in range(40):
            p = int(rng.integers(1, 21))
            G = rng.normal(size=(p, p))
            A = G.T @ G + 0.1 * np.eye(p)
            L = spd_logdet_inverse(A)
            L_inv = np.linalg.inv(L)
            assert np.max(np.abs(A @ (L_inv.T @ L_inv) - np.eye(p))) < 1e-8
            assert np.array_equal(L, np.tril(L))
            sign, ref = np.linalg.slogdet(A)
            assert sign == 1.0
            assert logdet(L) == pytest.approx(ref, rel=1e-9)


class TestFQuantile:
    def test_published_table_values(self):
        assert f_quantile(1, 10, 0.95) == pytest.approx(4.9646, abs=1e-4)
        assert f_quantile(5, 5, 0.95) == pytest.approx(5.0503, abs=1e-4)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            df1 = int(rng.integers(1, 20))
            df2 = int(rng.integers(1, 40))
            prob = float(rng.uniform(0.05, 0.995))
            ours = f_quantile(df1, df2, prob)
            oracle = f_quantile_bisection(df1, df2, prob)
            assert ours == pytest.approx(oracle, abs=1e-6, rel=1e-8)

    def test_cdf_round_trip(self):
        for df1, df2, prob in [(1, 10, 0.95), (3, 15, 0.9), (9, 22, 0.99), (2, 1, 0.5)]:
            x = f_quantile(df1, df2, prob)
            assert f_cdf(x, df1, df2) == pytest.approx(prob, abs=1e-8)

    def test_monotone_in_prob(self):
        qs = [f_quantile(1, 8, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_decreasing_in_denominator_df(self):
        qs = [f_quantile(1, d, 0.5) for d in (1, 2, 5, 10, 50)]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_invalid_df_rejected(self):
        with pytest.raises(ValueError):
            f_quantile(0, 10, 0.95)
        with pytest.raises(ValueError):
            f_quantile(1, 0, 0.95)
        with pytest.raises(ValueError):
            f_quantile(1, 10, 1.0)

    def test_table_matches_scalar_and_flags_zero_df(self):
        table = f_quantile_table(3, 12, 0.95)
        assert table[0] == math.inf
        for d in range(1, 13):
            assert table[d] == pytest.approx(f_quantile(3, d, 0.95), rel=1e-12)


ORACLE_PROBS = (0.5, 0.9, 0.95, 0.99, 0.999)


def stable_oracle(df1, max_df2, prob):
    """scipy's quantiles by the mirrored form: z = 1 - y solved for, x = d (1 - z) / (df1 z)."""
    d = np.arange(1, max_df2 + 1, dtype=float)
    z = special.betaincinv(d / 2.0, df1 / 2.0, 1.0 - prob)
    return d * (1.0 - z) / (df1 * z)


class TestFQuantileTable:
    def test_matches_the_stable_scipy_oracle(self):
        worst = 0.0
        for df1 in range(1, 61):
            for prob in ORACLE_PROBS:
                table = f_quantile_table(df1, 400, prob)
                rel = np.abs(table[1:] / stable_oracle(df1, 400, prob) - 1.0)
                worst = max(worst, float(rel.max()))
        assert worst <= 2e-12

    def test_extreme_probabilities(self):
        # 1 - alpha for alpha just inside (0, 1); small probabilities by the y form,
        # which is the stable one there
        d = np.arange(1, 201, dtype=float)
        for df1 in (1, 2, 7, 60):
            for prob in (2.0**-53, 1e-10):
                y = special.betaincinv(df1 / 2.0, d / 2.0, prob)
                oracle = d * y / (df1 * (1.0 - y))
                assert np.abs(f_quantile_table(df1, 200, prob)[1:] / oracle - 1).max() <= 2e-12
            for prob in (1.0 - 2.0**-53, 1e-300):
                table = f_quantile_table(df1, 200, prob)
                assert np.all(np.isfinite(table[1:])) and np.all(table[1:] >= 0.0)
            assert np.all(f_quantile_table(df1, 200, 1.0) == math.inf)

    def test_monotone_in_df2_and_prob_with_inf_at_zero(self):
        for df1 in (1, 2, 5, 10, 31, 60):
            tables = [f_quantile_table(df1, 400, prob) for prob in ORACLE_PROBS]
            for table in tables:
                assert table[0] == math.inf
                assert np.all(np.diff(table[1:]) < 0.0)
            for lo, hi in zip(tables, tables[1:]):
                assert np.all(lo[1:] < hi[1:])

    def test_tables_are_shared_and_read_only(self):
        table = f_quantile_table(4, 30, 0.95)
        assert f_quantile_table(4, 30, 0.95) is table
        assert f_quantile_table(np.int64(4), 30, np.float64(0.95)) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1] = 0.0

    def test_zero_length_and_invalid_arguments(self):
        assert list(f_quantile_table(3, 0, 0.95)) == [math.inf]
        with pytest.raises(ValueError):
            f_quantile_table(0, 10, 0.95)
        with pytest.raises(ValueError):
            f_quantile_table(1, 10, 0.0)


class TestPriorSample:
    def test_same_seed_identical(self):
        a = sample_prior(4, 2.0, 100, seed=123)
        b = sample_prior(4, 2.0, 100, seed=123)
        assert np.array_equal(a.draws, b.draws)

    def test_different_seed_differs(self):
        a = sample_prior(4, 2.0, 100, seed=123)
        b = sample_prior(4, 2.0, 100, seed=124)
        assert not np.array_equal(a.draws, b.draws)

    def test_moments_within_concentration_bounds(self):
        tau2 = 0.7
        B = 100_000
        sample = sample_prior(3, tau2, B, seed=99)
        means = sample.draws.mean(axis=0)
        assert np.all(np.abs(means) < 4 * math.sqrt(tau2 / B))
        variances = sample.draws.var(axis=0)
        assert np.all(np.abs(variances - tau2) < 0.1 * tau2)

    def test_draws_are_ndtri_of_the_philox_uniforms(self):
        sample = sample_prior(3, 0.7, 64, seed=2024)
        rng = np.random.Generator(np.random.Philox(key=2024))
        u = rng.integers(1, 1 << 53, size=(64, 3)).astype(float) / float(1 << 53)
        assert np.array_equal(sample.draws, math.sqrt(0.7) * special.ndtri(u))

    def test_shape_and_validation(self):
        s = sample_prior(2, 1.0, 5, seed=0)
        assert s.draws.shape == (5, 2)
        with pytest.raises(ValueError):
            sample_prior(0, 1.0, 5, seed=0)
        with pytest.raises(ValueError):
            sample_prior(2, -1.0, 5, seed=0)
