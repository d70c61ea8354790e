"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two long searches
are marked ``slow`` and can be skipped with ``-m "not slow"``.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from optex.criteria import (
    CriterionConfig,
    CriterionEvaluator,
    alias_matrix,
    compound_objective,
    efficiency,
)
from optex.experiment import ExperimentSpec
from optex.model import (
    Design,
    FactorGrid,
    expand_preset,
    model_matrices,
    termset_from_exponents,
    treatment_labels,
)
from optex.numeric import PriorSample
from optex.search import (
    PointObjective,
    build_candidates,
    multi_start,
    point_exchange,
    random_start,
    restart_rng,
)

from evaluators import components, f_quantile, kernel_blocks, replication_summary
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

DATA = Path(__file__).parent / "data"


def report(criterion, elapsed, budget):
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)",
          flush=True)
    assert elapsed < budget


def test_acceptance_1_determinant_lemma_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        X1, X2 = random_instance(rng)
        _, C, _ = kernel_blocks(X1, X2)  # C = Z'M^-1Z = L21 L21' from the kernel
        b = rng.normal(size=X2.shape[1])
        lhs = dense_mse_logdet(X1, X2, b)
        rhs = math.log(dense_phi_ds(X1)) + math.log1p(float(b @ C @ b))
        assert math.exp(lhs) == pytest.approx(math.exp(rhs), rel=1e-8)
    report("1 determinant-lemma identity", time.perf_counter() - start, 5)


def test_acceptance_2_criterion_oracles():
    # The evaluator's components against the dense oracles. Scale conversions:
    # |M^-1| = phi_base**p, DP = F_{p+1,d} |M^-1|^(1/p),
    # LoF-DP**q = F_{q,d}^q / |R + I/tau2|, MSE(D)**p = |M^-1| exp(E log(1 + b'Cb)).
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(100):
        X1, X2 = random_instance(rng)
        p, q = X1.shape[1], X2.shape[1]
        w1 = rng.uniform(0.25, 1.0, size=p)
        w2 = rng.uniform(0.25, 1.0, size=q)
        d = int(rng.integers(1, 15))
        alpha = 0.05
        tau2 = float(rng.uniform(0.5, 2.0))
        kw = dict(pe_df=d, w1=w1, w2=w2, tau2=tau2, alpha=alpha, alpha_lof=alpha)
        det = components(X1, X2, **kw)
        trace = components(X1, X2, family="MSE.L", **kw)

        assert det.phi_base ** p == pytest.approx(dense_phi_ds(X1), rel=1e-8)
        assert trace.phi_base == pytest.approx(dense_phi_l(X1, w1), rel=1e-8)
        assert det.phi_primary == pytest.approx(
            f_quantile_bisection(p + 1, d, 1 - alpha) * dense_phi_ds(X1) ** (1 / p),
            rel=1e-8)
        assert trace.phi_primary == pytest.approx(
            f_quantile_bisection(1, d, 1 - alpha) * dense_phi_l(X1, w1), rel=1e-8)
        _, _, R = kernel_blocks(X1, X2)
        assert np.allclose(R, dense_residual_gram(X1, X2),
                           atol=1e-8 * max(1.0, float(np.abs(R).max())))
        assert det.phi_lof ** q == pytest.approx(
            dense_lof_dp(X1, X2, d, alpha, tau2), rel=1e-8)
        assert trace.phi_lof == pytest.approx(
            dense_lof_lp(X1, X2, w2, d, alpha, tau2), rel=1e-8)
        assert np.allclose(alias_matrix(X1, X2), dense_alias(X1, X2), atol=1e-8)
        draws = rng.normal(size=(5, q))
        prior = PriorSample(draws=draws, seed=0)
        direct = math.exp(np.mean([dense_mse_logdet(X1, X2, bb) for bb in draws]))
        mc = components(X1, X2, family="MSE.D", prior=prior, **kw)
        assert mc.phi_mse ** p == pytest.approx(direct, rel=1e-8)
        point = math.exp(dense_mse_logdet(X1, X2, math.sqrt(tau2) * np.ones(q)))
        assert det.phi_mse ** p == pytest.approx(point, rel=1e-8)
        assert trace.phi_mse == pytest.approx(dense_mse_l(X1, X2, w1, tau2), rel=1e-8)
    report("2 criterion oracles", time.perf_counter() - start, 10)


def test_acceptance_3_f_quantile_accuracy():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    triples = [(1, 10, 0.95), (5, 5, 0.95)]
    triples += [(int(rng.integers(1, 25)), int(rng.integers(1, 40)),
                 float(rng.uniform(0.01, 0.995))) for _ in range(48)]
    for df1, df2, prob in triples:
        assert f_quantile(df1, df2, prob) == pytest.approx(
            f_quantile_bisection(df1, df2, prob), abs=1e-6)
    assert f_quantile(1, 10, 0.95) == pytest.approx(4.9646, abs=1e-4)
    assert f_quantile(5, 5, 0.95) == pytest.approx(5.0503, abs=1e-4)
    report("3 F-quantile accuracy", time.perf_counter() - start, 1)


def test_acceptance_4_reference_search_regression():
    start = time.perf_counter()
    spec = ExperimentSpec(
        grid=FactorGrid.regular(2, 3), n_runs=24,
        primary=expand_preset("main_effects", 2),
        potential=expand_preset("quadratic_terms", 2),
        criterion=CriterionConfig(family="MSE.D", kappa=(1 / 3, 1 / 3, 1 / 3),
                                  mc_samples=1000),
        n_starts=10, algorithm="ptex", seed=16092024,
    )
    res = multi_start(spec)
    assert 0.185 <= res.compound_value <= 0.192
    values = spec.grid.value_columns(res.design.settings)
    assert set(np.unique(values)) <= {-1.0, 0.0, 1.0}
    assert res.breakdown.pe_df >= 1
    assert len(res.path) == 10
    report("4 reference search regression", time.perf_counter() - start, 120)


@pytest.mark.slow
def test_acceptance_5_response_surface_case_study():
    start = time.perf_counter()
    grid = FactorGrid.regular(3, 5)

    def make_spec(kappa):
        return ExperimentSpec(
            grid=grid, n_runs=36,
            primary=expand_preset("second_order", 3),
            potential=expand_preset(["cubic_terms", "third_order_terms"], 3),
            criterion=CriterionConfig(family="MSE.P", kappa=kappa),
            n_starts=50, seed=42,
        )

    pure_dp = multi_start(make_spec((1.0, 0.0, 0.0)))
    assert pure_dp.breakdown.pe_df in (21, 22, 23)
    assert pure_dp.breakdown.lof_df in (3, 4, 5)

    pure_mse = multi_start(make_spec((0.0, 0.0, 1.0)))
    compound = multi_start(make_spec((0.4, 0.2, 0.4)))
    assert 15 <= compound.breakdown.pe_df <= 19

    eff_dp = efficiency(pure_dp.breakdown.phi_primary,
                        compound.breakdown.phi_primary)
    eff_mse = efficiency(pure_mse.breakdown.phi_mse, compound.breakdown.phi_mse)
    assert eff_dp >= 85.0
    assert eff_mse >= 95.0
    print(f"\n  case-study efficiencies: DP {eff_dp:.2f}%, MSE {eff_mse:.2f}%; "
          f"dfs {pure_dp.breakdown.pe_df}/{pure_dp.breakdown.lof_df} and "
          f"{compound.breakdown.pe_df}/{compound.breakdown.lof_df}")
    report("5 response-surface case study", time.perf_counter() - start, 1800)


@pytest.mark.slow
def test_acceptance_6_two_level_screening_structure(tmp_path):
    start = time.perf_counter()
    grid = FactorGrid.regular(4, 2)

    def make_spec(kappa):
        return ExperimentSpec(
            grid=grid, n_runs=12,
            primary=expand_preset("main_effects", 4),
            potential=expand_preset("linear_interactions", 4),
            criterion=CriterionConfig(family="MSE.L", kappa=kappa),
            n_starts=200, seed=2025,
        )

    compound_spec = make_spec((1 / 3, 1 / 3, 1 / 3))
    compound = multi_start(compound_spec)
    t_compound = len(np.unique(compound.design.settings, axis=0))
    A = alias_matrix(*model_matrices(compound.design, compound_spec.primary,
                                     compound_spec.potential, grid))
    assert np.all(A == 0.0)
    assert 7 <= t_compound <= 9

    lp = multi_start(make_spec((1.0, 0.0, 0.0)))
    assert len(np.unique(lp.design.settings, axis=0)) <= 6

    mse = multi_start(make_spec((0.0, 0.0, 1.0)))
    assert len(np.unique(mse.design.settings, axis=0)) >= 11

    # scoring the stored Plackett-Burman projection through the CLI surface
    from optex.cli import main as cli_main
    import yaml
    cfg = tmp_path / "pb.yaml"
    cfg.write_text(yaml.safe_dump({
        "factors": {"count": 4, "levels": 2},
        "runs": 12,
        "model": {"primary": "main_effects", "potential": "linear_interactions"},
        "criterion": {"family": "MSE.L", "kappa": [1 / 3, 1 / 3, 1 / 3]},
        "output": {"dir": str(tmp_path / "out")},
    }))
    assert cli_main(["eval", "--config", str(cfg),
                     "--design", str(DATA / "pb12_k4.csv")]) == 0
    rec = json.loads((tmp_path / "out" / "eval_result.json").read_text())
    A_pb = np.array(rec["alias_matrix"])
    pairs = list(itertools.combinations(range(4), 2))
    for i in range(4):
        for t, (a, b) in enumerate(pairs):
            if i in (a, b):
                assert A_pb[i, t] == 0.0
            else:
                assert abs(A_pb[i, t]) == pytest.approx(1 / 3, abs=1e-12)
    print(f"\n  distinct treatments: compound {t_compound}, "
          f"LP {len(np.unique(lp.design.settings, axis=0))}, "
          f"MSE(L) {len(np.unique(mse.design.settings, axis=0))}")
    report("6 two-level screening structure", time.perf_counter() - start, 600)


def test_acceptance_7_search_properties():
    start = time.perf_counter()
    spec = ExperimentSpec(
        grid=FactorGrid.regular(2, 3), n_runs=12,
        primary=expand_preset("main_effects", 2),
        potential=expand_preset("quadratic_terms", 2),
        criterion=CriterionConfig(family="MSE.D", kappa=(1 / 3, 1 / 3, 1 / 3)),
        n_starts=8, seed=777,
    )

    # monotone descent and fixed-point soundness on raw exchanges
    cand = build_candidates(spec.grid)
    from optex.search import prior_for_spec
    prior = prior_for_spec(spec, spec.seed)
    objective = PointObjective(CriterionEvaluator.from_spec(spec), cand, prior)
    for r in range(4):
        start_idx = random_start(cand, spec.n_runs, restart_rng(777, r))
        out = point_exchange(start_idx, cand, objective)
        values = [float(objective(start_idx))] + out.accepted
        assert all(a > b for a, b in zip(values, values[1:]))
        assert out.objective <= values[0]
        again = point_exchange(out.state, cand, objective)
        assert np.array_equal(again.state, out.state) and again.accepted == []

    # best-of-restarts identity and 1-vs-max-workers byte identity
    res1 = multi_start(spec, workers=1)
    res_max = multi_start(spec, workers=None)
    assert res1.compound_value == min(res1.path)

    def snapshot(res):
        return json.dumps({
            "design": res.design.settings.tolist(),
            "labels": treatment_labels(res.design.settings, spec.grid).tolist(),
            "path": list(res.path),
            "breakdown": [res.breakdown.phi_primary, res.breakdown.phi_lof,
                          res.breakdown.phi_mse, res.breakdown.log_compound],
            "seed": res.seed,
        })
    assert snapshot(res1).encode() == snapshot(res_max).encode()

    # toy-scale brute force: every ordered design of 3 runs on a 3-level line
    grid1 = FactorGrid.regular(1, 3)
    toy = ExperimentSpec(
        grid=grid1, n_runs=3,
        primary=termset_from_exponents([[1]], 1),
        potential=termset_from_exponents([[2]], 1),
        criterion=CriterionConfig(family="MSE.L", kappa=(0.0, 0.0, 1.0)),
        n_starts=20, seed=4,
    )
    best = min(compound_objective(Design(np.array(c).reshape(3, 1)), toy).compound_value
               for c in itertools.product(range(3), repeat=3))
    res_toy = multi_start(toy, workers=1)
    assert res_toy.compound_value == pytest.approx(best, rel=1e-12)
    report("7 search properties", time.perf_counter() - start, 30)


def test_acceptance_8_df_accounting_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(1008)
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        lev = int(rng.integers(2, 6))
        grid = FactorGrid.regular(k, lev)
        n = int(rng.integers(6, 40))
        p = int(rng.integers(1, 10))
        design = Design(rng.integers(0, lev, size=(n, k)))
        s = replication_summary(design, grid, p)
        assert s.pe_df == n - s.t >= 0
        assert s.lof_df >= 0
        if s.t >= p + 1:
            assert s.pe_df + s.lof_df == n - p - 1

    # label bijection over complete candidate sets, largest 5^4 = 625
    for levels in ((2, 2, 2, 2), (3, 3, 3), (4, 3, 2), (5, 5, 5, 5)):
        grid = FactorGrid.regular(len(levels), list(levels))
        cand = build_candidates(grid)
        labels = treatment_labels(cand.rows, grid)
        assert list(labels) == list(range(1, grid.n_candidates + 1))
        for c in (0, 1, grid.n_candidates // 2, grid.n_candidates - 1):
            single = Design(cand.rows[c].reshape(1, -1))
            assert treatment_labels(single.settings, grid)[0] == c + 1
    report("8 df accounting fuzz", time.perf_counter() - start, 10)
