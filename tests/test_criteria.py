import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optex import criteria
from optex.criteria import (
    FAMILIES,
    CriterionConfig,
    CriterionEvaluator,
    alias_matrix,
    compound_objective,
    efficiency,
    information_factor,
)
from optex.experiment import ExperimentSpec
from optex.model import (
    Design,
    FactorGrid,
    TermSet,
    expand_preset,
    model_matrices,
    termset_from_exponents,
)
from optex.numeric import PriorSample, sample_prior
from optex.reporting import UNIT_KAPPAS, breakdown_dict, efficiency_table

from evaluators import (
    components,
    f_quantile,
    kernel_blocks,
    matrix_evaluator,
    replication_summary,
)
from oracles import (
    dense_alias,
    dense_lof_dp,
    dense_lof_lp,
    dense_mse_l,
    dense_mse_logdet,
    dense_phi_ds,
    dense_phi_l,
    dense_residual_gram,
    f_quantile_bisection,
    random_instance,
)

# Component scales (see optex.criteria): determinant-family values are
# per-parameter, so |M^-1| = phi_base**p, DP = F_{p+1,d} |M^-1|^(1/p),
# LoF-DP**q = F_{q,d}^q / |R + I/tau2| and MSE(D)**p = |M^-1| exp(E log(1 + b'Cb)).
# Trace-family values are the plain weighted traces.

FACTORIAL_4 = np.array([[-1, -1, 1], [-1, 1, -1], [1, -1, -1], [1, 1, 1]], dtype=float)
ORTHO_X1 = np.array([[-1.0], [-1.0], [1.0], [1.0]])
ORTHO_X2 = np.array([[1.0], [-1.0], [-1.0], [1.0]])


def small_spec(family="MSE.L", kappa=(1 / 3, 1 / 3, 1 / 3), n_runs=24, levels=3,
               mc_samples=50):
    grid = FactorGrid.regular(2, levels)
    return ExperimentSpec(
        grid=grid, n_runs=n_runs,
        primary=expand_preset("main_effects", 2),
        potential=expand_preset("quadratic_terms", 2),
        criterion=CriterionConfig(family=family, kappa=kappa, mc_samples=mc_samples),
    )


class TestPhiDs:
    """|M^-1| read from the kernel: phi_base**p of the determinant family."""

    def test_scaled_identity(self):
        b = components(FACTORIAL_4)  # M = 4 I_3
        assert b.phi_base ** 3 == pytest.approx(1 / 64)

    def test_identity(self):
        # x1, x2, x3, x1x2, x1x3 of the 2^3 factorial, scaled so that M = I_5
        F = np.array([[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)],
                     dtype=float)
        X1 = np.column_stack([F, F[:, 0] * F[:, 1], F[:, 0] * F[:, 2]]) / math.sqrt(8.0)
        assert components(X1).phi_base ** 5 == pytest.approx(1.0)

    def test_singular_maps_to_inf(self):
        b = components(np.ones((6, 2)))
        assert b.phi_base == math.inf
        assert b.phi_primary == b.phi_lof == b.phi_mse == math.inf

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            X1, _ = random_instance(rng)
            assert components(X1).phi_base ** X1.shape[1] == pytest.approx(
                dense_phi_ds(X1), rel=1e-8)


class TestPhiL:
    """w'diag(M^-1) read from the kernel: phi_base of the trace family."""

    X1 = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]], dtype=float)  # M = 4 I_2

    def test_unit_weights(self):
        assert components(self.X1, family="MSE.L").phi_base == pytest.approx(0.5)

    def test_quadratic_weight(self):
        b = components(self.X1, family="MSE.L", w1=np.array([1.0, 0.25]))
        assert b.phi_base == pytest.approx(0.3125)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            X1, _ = random_instance(rng)
            w = rng.uniform(0.2, 2.0, size=X1.shape[1])
            assert components(X1, family="MSE.L", w1=w).phi_base == pytest.approx(
                dense_phi_l(X1, w), rel=1e-8)


class TestInflatedCriteria:
    """DP = F_{p+1,d} |M^-1|^(1/p) and LP = F_{1,d} w'diag(M^-1)."""

    UNIT = np.array([[-1.0], [1.0]]) / math.sqrt(2.0)  # M = [[1]]

    def dp(self, pe_df, alpha=0.05, X1=None):
        X1 = self.UNIT if X1 is None else X1
        return components(X1, pe_df=pe_df, alpha=alpha).phi_primary

    def test_phi_dp_zero_pe_df_is_inf(self):
        assert self.dp(0, X1=FACTORIAL_4) == math.inf

    def test_phi_dp_matches_quantile(self):
        # p = 1: the quantile is F_{2,10;0.95}
        assert self.dp(10) == pytest.approx(4.1028, abs=1e-4)

    def test_phi_dp_decreasing_in_alpha(self):
        vals = [self.dp(8, a, X1=FACTORIAL_4[:, :2]) for a in (0.01, 0.05, 0.2, 0.5, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_phi_dp_monotone_decreasing_in_pe_df(self):
        vals = [self.dp(d, X1=FACTORIAL_4) for d in (1, 2, 5, 10, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_phi_lp(self):
        X1 = TestPhiL.X1  # w'diag(M^-1) = 0.5
        assert components(X1, pe_df=10, family="MSE.L").phi_primary == pytest.approx(
            0.5 * 4.9646, abs=1e-3)
        assert components(X1, pe_df=0, family="MSE.L").phi_primary == math.inf


class TestResidualGram:
    """R = X2'(I - P)X2 read from the kernel: L22 L22' - I/tau2."""

    def test_orthogonal_potential_untouched(self):
        # X2 orthogonal to [1 | X1]: residual gram is its own gram
        _, _, R = kernel_blocks(ORTHO_X1, ORTHO_X2)
        assert np.allclose(R, ORTHO_X2.T @ ORTHO_X2, atol=1e-12)

    def test_aliased_potential_annihilated(self):
        X1 = np.array([[-1.0], [0.0], [1.0], [2.0]])
        _, _, R = kernel_blocks(X1, 2.0 * X1 + 3.0)
        assert np.allclose(R, 0.0, atol=1e-10)

    def test_against_dense_projector(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            X1, X2 = random_instance(rng)
            _, _, R = kernel_blocks(X1, X2)
            assert np.allclose(R, dense_residual_gram(X1, X2), atol=1e-10 * X1.shape[0])

    def test_rank_deficient_flagged(self):
        X1 = np.ones((5, 2))
        assert kernel_blocks(X1, np.random.default_rng(0).normal(size=(5, 1))) is None


def spanned(rng, X1, q):
    """q potential columns inside the span of [1 | X1]: R = 0 up to rounding."""
    return X1 @ rng.normal(size=(X1.shape[1], q)) + rng.normal(size=q)


class TestLofCriteria:
    def test_lof_dp_zero_residual(self):
        q, d = 2, 7
        rng = np.random.default_rng(30)
        X1 = rng.normal(size=(12, 3))
        b = components(X1, spanned(rng, X1, q), pe_df=d, tau2=1.0)
        assert b.phi_lof ** q == pytest.approx(f_quantile(q, d, 0.95) ** q)

    def test_lof_dp_large_tau2_limit(self):
        rng = np.random.default_rng(13)
        X1, X2 = random_instance(rng, q=3)
        big = components(X1, X2, pe_df=9, tau2=1e8).phi_lof ** 3
        direct = f_quantile(3, 9, 0.95) ** 3 / np.linalg.det(dense_residual_gram(X1, X2))
        assert big == pytest.approx(direct, rel=1e-6)

    def test_lof_dp_no_potential_terms_neutral(self):
        assert components(FACTORIAL_4, pe_df=5).phi_lof == 1.0

    def test_lof_dp_zero_pe_df(self):
        assert components(ORTHO_X1, ORTHO_X2, pe_df=0).phi_lof == math.inf

    def test_lof_dp_against_dense(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            X1, X2 = random_instance(rng)
            d = int(rng.integers(1, 12))
            ours = components(X1, X2, pe_df=d, tau2=1.3).phi_lof ** X2.shape[1]
            assert ours == pytest.approx(dense_lof_dp(X1, X2, d, 0.05, 1.3), rel=1e-8)

    def test_lof_lp_zero_residual_unit_weights(self):
        q, d = 3, 11
        rng = np.random.default_rng(31)
        X1 = rng.normal(size=(15, 4))
        b = components(X1, spanned(rng, X1, q), pe_df=d, family="MSE.L", tau2=1.0)
        assert b.phi_lof == pytest.approx(f_quantile(1, d, 0.95) * q)

    def test_lof_lp_zero_pe_df(self):
        b = components(ORTHO_X1, ORTHO_X2, pe_df=0, family="MSE.L")
        assert b.phi_lof == math.inf

    def test_lof_lp_against_dense(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            X1, X2 = random_instance(rng)
            w = rng.uniform(0.25, 1.0, size=X2.shape[1])
            d = int(rng.integers(1, 12))
            ours = components(X1, X2, pe_df=d, family="MSE.L", w2=w, tau2=0.8).phi_lof
            assert ours == pytest.approx(dense_lof_lp(X1, X2, w, d, 0.05, 0.8), rel=1e-8)


class TestAliasMatrix:
    def test_centered_orthogonal_gives_zero(self):
        assert np.all(alias_matrix(ORTHO_X1, ORTHO_X2) == 0.0)

    def test_self_alias_is_identity(self):
        rng = np.random.default_rng(16)
        X1 = rng.normal(size=(10, 3))
        assert np.allclose(alias_matrix(X1, X1), np.eye(3), atol=1e-10)

    def test_against_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            X1, X2 = random_instance(rng)
            assert np.allclose(alias_matrix(X1, X2), dense_alias(X1, X2), atol=1e-8)


class TestMseCriteria:
    def test_mc_with_zero_draws_reduces_to_phi_ds(self):
        rng = np.random.default_rng(18)
        X1, X2 = random_instance(rng)
        prior = PriorSample(draws=np.zeros((10, X2.shape[1])), seed=0)
        b = components(X1, X2, family="MSE.D", prior=prior)
        assert b.phi_mse == pytest.approx(b.phi_base, rel=1e-12)

    def test_single_unit_draw_equals_point_prior(self):
        rng = np.random.default_rng(19)
        X1, X2 = random_instance(rng)
        tau2 = 1.7
        prior = PriorSample(draws=np.full((1, X2.shape[1]), math.sqrt(tau2)), seed=0)
        mc = components(X1, X2, family="MSE.D", prior=prior, tau2=tau2).phi_mse
        assert mc == pytest.approx(components(X1, X2, tau2=tau2).phi_mse, rel=1e-12)

    def test_point_prior_zero_tau2_is_phi_ds(self):
        # tau2 must be positive; at 1e-30 the bias term is below rounding
        rng = np.random.default_rng(20)
        X1, X2 = random_instance(rng)
        b = components(X1, X2, tau2=1e-30)
        assert b.phi_mse == pytest.approx(b.phi_base, rel=1e-12)

    def test_point_prior_centered_orthogonal_is_phi_ds(self):
        b = components(ORTHO_X1, ORTHO_X2, tau2=2.0)
        assert b.phi_mse == pytest.approx(b.phi_base, rel=1e-14)

    def test_mc_against_determinant_lemma_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            X1, X2 = random_instance(rng)
            draws = rng.normal(size=(8, X2.shape[1]))
            prior = PriorSample(draws=draws, seed=0)
            direct = math.exp(np.mean([dense_mse_logdet(X1, X2, b) for b in draws]))
            ours = components(X1, X2, family="MSE.D", prior=prior).phi_mse ** X1.shape[1]
            assert ours == pytest.approx(direct, rel=1e-8)

    def test_determinant_lemma_identity(self):
        # |M^-1 + A1 b b' A1'| = |M^-1| (1 + b'Cb), with M and C from the kernel
        rng = np.random.default_rng(22)
        for _ in range(50):
            X1, X2 = random_instance(rng)
            M, C, _ = kernel_blocks(X1, X2)
            b = rng.normal(size=X2.shape[1])
            lhs = math.exp(dense_mse_logdet(X1, X2, b))
            rhs = (1.0 + b @ C @ b) / np.linalg.det(M)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_mse_l_no_aliasing_is_phi_l(self):
        b = components(ORTHO_X1, ORTHO_X2, family="MSE.L", tau2=3.0)
        assert b.phi_mse == pytest.approx(b.phi_base, rel=1e-14)

    def test_mse_l_zero_tau2_is_phi_l(self):
        rng = np.random.default_rng(23)
        X1, X2 = random_instance(rng)
        w = rng.uniform(0.25, 1.0, size=X1.shape[1])
        b = components(X1, X2, family="MSE.L", w1=w, tau2=1e-30)
        assert b.phi_mse == pytest.approx(b.phi_base, rel=1e-12)

    def test_mse_l_against_dense(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            X1, X2 = random_instance(rng)
            w = rng.uniform(0.25, 1.0, size=X1.shape[1])
            ours = components(X1, X2, family="MSE.L", w1=w, tau2=1.4).phi_mse
            assert ours == pytest.approx(dense_mse_l(X1, X2, w, 1.4), rel=1e-8)

    def test_singular_information_matrix_inf(self):
        X1 = np.ones((6, 2))
        X2 = np.random.default_rng(0).normal(size=(6, 1))
        assert components(X1, X2).phi_mse == math.inf
        assert components(X1, X2, family="MSE.L").phi_mse == math.inf


def random_design(rng, spec, n=None):
    n = n or spec.n_runs
    idx = np.column_stack([rng.integers(0, lev, size=n) for lev in spec.grid.levels])
    return Design(idx)


class TestCompoundObjective:
    def test_pure_weight_rankings_match_components(self):
        rng = np.random.default_rng(25)
        spec_lp = small_spec("MSE.L", kappa=(1.0, 0.0, 0.0))
        spec_mse = small_spec("MSE.L", kappa=(0.0, 0.0, 1.0))
        designs = [random_design(rng, spec_lp) for _ in range(12)]
        b_lp = [compound_objective(d, spec_lp) for d in designs]
        b_mse = [compound_objective(d, spec_mse) for d in designs]
        order_by_compound = np.argsort([b.log_compound for b in b_lp])
        order_by_phi = np.argsort([b.phi_primary for b in b_lp])
        assert list(order_by_compound) == list(order_by_phi)
        order_by_compound = np.argsort([b.log_compound for b in b_mse])
        order_by_phi = np.argsort([b.phi_mse for b in b_mse])
        assert list(order_by_compound) == list(order_by_phi)

    def test_zero_weight_infinite_component_does_not_poison(self):
        # all-distinct design: pe_df = 0, so LP is +inf, but kappa puts no
        # weight on it and the trace-family MSE value stays finite
        spec = small_spec("MSE.L", kappa=(0.0, 0.0, 1.0), n_runs=9)
        idx = np.column_stack([np.arange(9) // 3, np.arange(9) % 3])
        b = compound_objective(Design(idx), spec)
        assert b.pe_df == 0
        assert b.phi_primary == math.inf
        assert math.isfinite(b.log_compound)

    def test_log_domain_consistency(self):
        rng = np.random.default_rng(26)
        for family in ("MSE.P", "MSE.L"):
            spec = small_spec(family, kappa=(0.5, 0.2, 0.3))
            for _ in range(10):
                d = random_design(rng, spec)
                b = compound_objective(d, spec)
                if not math.isfinite(b.log_compound):
                    continue
                direct = (b.phi_primary**0.5) * (b.phi_lof**0.2) * (b.phi_mse**0.3)
                assert math.exp(b.log_compound) == pytest.approx(direct, rel=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(27)
        for family in ("MSE.D", "MSE.P", "MSE.L"):
            spec = small_spec(family)
            prior = sample_prior(2, 1.0, 50, seed=5) if family == "MSE.D" else None
            d = random_design(rng, spec)
            perm = rng.permutation(spec.n_runs)
            b1 = compound_objective(d, spec, prior)
            b2 = compound_objective(Design(d.settings[perm]), spec, prior)
            for attr in ("phi_primary", "phi_lof", "phi_mse", "log_compound"):
                assert getattr(b1, attr) == pytest.approx(getattr(b2, attr), rel=1e-9)

    def test_weighted_only_matches_full_objective(self):
        # factor_objective evaluates only the weighted components, the
        # breakdown all three; a zero-weight component leaves the compound unchanged
        rng = np.random.default_rng(28)
        for family in ("MSE.P", "MSE.L"):
            spec = small_spec(family, kappa=(0.4, 0.0, 0.6))
            ev = CriterionEvaluator.from_spec(spec)
            for _ in range(5):
                d = random_design(rng, spec)
                X1, X2 = model_matrices(d, spec.primary, spec.potential, spec.grid)
                reps = replication_summary(d, spec.grid, spec.p)
                full = ev.breakdown(X1, X2, reps.pe_df, reps.lof_df, None)
                objective = ev.factor_objective(
                    ev.exact_factor(np.hstack([X1, X2])[None], None), reps.pe_df)[0]
                assert objective == full.log_compound

    def test_mse_d_requires_prior(self):
        spec = small_spec("MSE.D")
        with pytest.raises(ValueError, match="PriorSample"):
            compound_objective(random_design(np.random.default_rng(0), spec), spec)

    def test_reference_design_value_in_published_window(self):
        # 24-run layout over the 3x3 grid whose compound value is known to
        # sit in [0.185, 0.192] under the determinant family with B=1000
        spec = small_spec("MSE.D", mc_samples=1000)
        counts = {(0, 0): 4, (0, 1): 2, (0, 2): 4, (1, 0): 2, (1, 1): 1,
                  (1, 2): 2, (2, 0): 4, (2, 1): 2, (2, 2): 3}
        rows = [cell for cell, m in counts.items() for _ in range(m)]
        prior = sample_prior(2, 1.0, 1000, seed=314)
        b = compound_objective(Design(np.array(rows)), spec, prior)
        assert b.pe_df == 15
        assert 0.185 <= b.compound_value <= 0.192


class TestEfficiency:
    def test_plain_ratio(self):
        assert efficiency(2.0, 4.0) == pytest.approx(50.0)
        assert efficiency(2.0, 2.0) == pytest.approx(100.0)

    def test_can_exceed_hundred(self):
        assert efficiency(2.0, 1.9) > 100.0

    def test_infinite_value_is_zero(self):
        assert efficiency(2.0, math.inf) == 0.0

    def test_zero_value_is_blank(self):
        assert efficiency(2.0, 0.0) is None

    def test_report_rows(self):
        # each pure-criterion record is the reference of its own component
        spec = small_spec("MSE.L")
        rng = np.random.default_rng(29)
        names = spec.criterion.component_names()
        records = [{"config": {"criterion": {"family": "MSE.L", "kappa": list(kappa)}},
                    "breakdown": breakdown_dict(
                        compound_objective(random_design(rng, spec), spec), names)}
                   for kappa in UNIT_KAPPAS]
        rows = efficiency_table(records)["rows"]
        assert rows[0]["eff_primary"] == pytest.approx(100.0)
        assert rows[1]["eff_lof"] == pytest.approx(100.0)
        assert rows[2]["eff_mse"] == pytest.approx(100.0)
        assert len(rows) == 3
        assert {"pe_df", "lof_df"} <= set(rows[0])


# -- the components kernel -----------------------------------------------------

def aliased_potential_spec(family, tau2):
    # On the grid {-1, 0, 1}, x^3 equals x: the potential block is singular
    # but for the ridge I/tau2, while x^2 keeps it otherwise well posed.
    return ExperimentSpec(
        grid=FactorGrid.regular(1, 3), n_runs=8,
        primary=expand_preset("main_effects", 1),
        potential=termset_from_exponents([[2], [3]], 1),
        criterion=CriterionConfig(family=family, tau2=tau2, mc_samples=5))


ALIASED_DESIGN = Design(np.array([[0], [0], [1], [2], [2], [1], [0], [2]]))


class TestPerBlockRule:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("tau2", [1e12, 1e16])
    def test_failed_potential_block_makes_only_lof_infinite(self, family, tau2):
        # At tau2 = 1e12 the potential block fails the pivot rule; at 1e16
        # the joint factorisation itself may fail, and the M block is then
        # factored alone. Either way LoF alone is +inf.
        spec = aliased_potential_spec(family, tau2)
        prior = sample_prior(2, tau2, 5, seed=1) if family == "MSE.D" else None
        b = compound_objective(ALIASED_DESIGN, spec, prior)
        assert b.phi_lof == math.inf
        assert math.isfinite(b.phi_primary) and math.isfinite(b.phi_mse)
        assert b.log_compound == math.inf
        finite = compound_objective(ALIASED_DESIGN, aliased_potential_spec(family, 1.0),
                                    prior)
        assert math.isfinite(finite.phi_lof)
        assert b.phi_primary == pytest.approx(finite.phi_primary, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("potential", [None, "quadratic_terms"])
    @pytest.mark.parametrize("level", range(4))
    def test_constant_primary_column_is_singular(self, family, potential, level):
        # k = 1 on four levels, all four runs at one level: M = 0, which the
        # centring leaves at 5.6e-17 for x = -1/3. With p = 1, M's own
        # diagonal is the pivot itself and would pass that residue; the
        # rule's scale is X1'X1, against which it fails as an exact 0 does.
        spec = ExperimentSpec(
            grid=FactorGrid.regular(1, 4), n_runs=4,
            primary=expand_preset("main_effects", 1),
            potential=expand_preset(potential, 1) if potential else TermSet(()),
            criterion=CriterionConfig(family=family, mc_samples=5))
        prior = sample_prior(spec.q, 1.0, 5, seed=1) if family == "MSE.D" and spec.q else None
        design = Design(np.full((4, 1), level))
        X1, X2 = model_matrices(design, spec.primary, spec.potential, spec.grid)
        factor = information_factor(np.hstack([X1, X2])[None], 1, ridge=1.0)
        assert factor.ok == [False] and factor.potential_ok == [False]
        assert compound_objective(design, spec, prior).log_compound == math.inf

    def test_joint_failure_keeps_the_m_block(self):
        # A negative ridge makes the potential block indefinite: the M block
        # is factored alone and its blocks still give M and the alias matrix.
        rng = np.random.default_rng(40)
        X1, X2 = random_instance(rng)
        p = X1.shape[1]
        factor = information_factor(np.hstack([X1, X2])[None], p, ridge=-1e6)
        assert factor.ok == [True] and factor.potential_ok == [False]
        L = factor.L[0]
        assert np.allclose(L[:p, :p] @ L[:p, :p].T, kernel_blocks(X1)[0], atol=1e-10)
        A1 = np.linalg.inv(L[:p, :p]).T @ L[p:, :p].T
        assert np.allclose(A1, dense_alias(X1, X2), atol=1e-8)


def count_factorisations(monkeypatch):
    """Record every call of the factorisation the exact path makes."""
    calls = []
    factor = criteria.spd_logdet_inverse

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factor(*args, **kwargs)

    monkeypatch.setattr(criteria, "spd_logdet_inverse", counted)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
def test_one_factorisation_per_exact_evaluation(monkeypatch, family):
    spec = small_spec(family, mc_samples=10)
    prior = sample_prior(2, 1.0, 10, seed=3) if family == "MSE.D" else None
    ev = CriterionEvaluator.from_spec(spec)
    design = random_design(np.random.default_rng(41), spec)
    X1, X2 = model_matrices(design, spec.primary, spec.potential, spec.grid)
    pe_df = replication_summary(design, spec.grid, spec.p).pe_df
    calls = count_factorisations(monkeypatch)
    assert math.isfinite(
        ev.factor_objective(ev.exact_factor(np.hstack([X1, X2])[None], prior), pe_df)[0])
    assert calls == [(1,) + (spec.p + spec.q,) * 2]
    ev.breakdown(X1, X2, pe_df, 0, prior)
    assert len(calls) == 2


def quadratic_columns(settings):
    """X = [x1, x2, x1^2, x2^2] of two-factor settings on {-1, 0, 1}."""
    x = np.array(settings, dtype=float)
    return np.hstack([x, x ** 2])


@pytest.mark.parametrize("family", FAMILIES)
def test_a_failed_stack_is_factored_as_stacks_of_one(monkeypatch, family):
    # One design is a stack of one. A passing stack of one makes one
    # factorisation, and one whose joint factorisation fails (a negative
    # ridge) two: the M block is factored alone. A stack of B whose call fails
    # makes 1 + B calls, plus an M block for each design whose own joint call
    # fails, and each design is bit for bit its own stack of one: a passing
    # design (the 3 x 3 factorial), one whose M block fails (every run at
    # (-1, -1): M = 0) and one whose potential block fails (x1^2 = x2^2 in
    # every run, so R is singular and its ridge, at tau2 = 1e16, is far below
    # the SPD_TOL rule).
    calls = count_factorisations(monkeypatch)
    X1, X2 = random_instance(np.random.default_rng(40))
    for ridge, made in ((1.0, 1), (-1e6, 2)):
        calls.clear()
        information_factor(np.hstack([X1, X2])[None], X1.shape[1], ridge)
        assert len(calls) == made
    ev = matrix_evaluator(2, 2, family, tau2=1e16)
    prior = sample_prior(2, 1.0, 8, seed=3) if family == "MSE.D" else None
    designs = [quadratic_columns([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]),
               quadratic_columns([(-1, -1)] * 9),
               quadratic_columns([(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0), (-1, -1),
                                  (1, 1), (0, 0), (1, -1)])]
    alone, made = [], []
    for X in designs:
        calls.clear()
        alone.append(ev.exact_factor(X[None], prior))
        made.append(len(calls))
    assert made[:2] == [1, 2]
    calls.clear()
    stack = ev.exact_factor(np.array(designs), prior)
    assert len(calls) == 1 + len(designs) + sum(m - 1 for m in made)
    assert stack.ok == [True, False, True] and stack.potential_ok == [True, False, False]
    for i, own in enumerate(alone):
        assert [stack.ok[i]] == own.ok and [stack.potential_ok[i]] == own.potential_ok
        pairs = [(stack.L, own.L), (stack.pivots, own.pivots), *zip(stack.terms, own.terms),
                 *zip(stack.inverses or (), own.inverses or ())]
        assert (stack.inverses is None) == (own.inverses is None) == (family != "MSE.L")
        for a, b in pairs:
            assert (a is None) == (b is None)
            assert a is None or a[i:i + 1].tobytes() == b.tobytes()


@st.composite
def matrix_designs(draw):
    p = draw(st.integers(1, 5))
    q = draw(st.integers(0, 4))
    n = draw(st.integers(p + q + 2, p + q + 12))
    pe_df = draw(st.integers(0, n))
    tau2 = draw(st.sampled_from([0.25, 1.0, 4.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, p, q, pe_df, tau2, seed


@settings(max_examples=60)
@given(matrix_designs())
def test_components_match_dense_oracles(case):
    n, p, q, d, tau2, seed = case
    rng = np.random.default_rng(seed)
    X1, X2 = rng.normal(size=(n, p)), rng.normal(size=(n, q))
    w1, w2 = rng.uniform(0.25, 1.0, size=p), rng.uniform(0.25, 1.0, size=q)
    draws = rng.normal(size=(4, q))
    prior = PriorSample(draws=draws, seed=0)
    kw = dict(pe_df=d, w1=w1, w2=w2, tau2=tau2)
    det_p = components(X1, X2, **kw)
    det_d = components(X1, X2, family="MSE.D", prior=prior, **kw)
    trace = components(X1, X2, family="MSE.L", **kw)

    ds = dense_phi_ds(X1)
    assert det_p.phi_base ** p == pytest.approx(ds, rel=1e-8)
    assert trace.phi_base == pytest.approx(dense_phi_l(X1, w1), rel=1e-8)
    if d == 0:
        assert det_p.phi_primary == trace.phi_primary == math.inf
    else:
        assert det_p.phi_primary == pytest.approx(
            f_quantile_bisection(p + 1, d, 0.95) * ds ** (1 / p), rel=1e-8)
        assert trace.phi_primary == pytest.approx(
            f_quantile_bisection(1, d, 0.95) * dense_phi_l(X1, w1), rel=1e-8)
    if q == 0:
        assert det_p.phi_lof == trace.phi_lof == 1.0
        assert det_p.phi_mse == pytest.approx(det_p.phi_base, rel=1e-12)
        assert det_d.phi_mse == pytest.approx(det_d.phi_base, rel=1e-12)
    else:
        if d == 0:
            assert det_p.phi_lof == trace.phi_lof == math.inf
        else:
            assert det_p.phi_lof ** q == pytest.approx(
                dense_lof_dp(X1, X2, d, 0.05, tau2), rel=1e-8)
            assert trace.phi_lof == pytest.approx(
                dense_lof_lp(X1, X2, w2, d, 0.05, tau2), rel=1e-8)
        point = dense_mse_logdet(X1, X2, math.sqrt(tau2) * np.ones(q))
        assert det_p.phi_mse ** p == pytest.approx(math.exp(point), rel=1e-8)
        mc = np.mean([dense_mse_logdet(X1, X2, b) for b in draws])
        assert det_d.phi_mse ** p == pytest.approx(math.exp(mc), rel=1e-8)
    assert trace.phi_mse == pytest.approx(dense_mse_l(X1, X2, w1, tau2), rel=1e-8)

    # a row-permuted copy is the same design
    perm = rng.permutation(n)
    for b, family, prior_ in ((det_p, "MSE.P", None), (det_d, "MSE.D", prior),
                              (trace, "MSE.L", None)):
        again = components(X1[perm], X2[perm], family=family, prior=prior_, **kw)
        for attr in ("phi_primary", "phi_lof", "phi_mse", "phi_base", "log_compound"):
            assert getattr(again, attr) == pytest.approx(getattr(b, attr), rel=1e-9)
