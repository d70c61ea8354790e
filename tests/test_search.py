import dataclasses
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from optex import criteria, search
from optex.config import apply_overrides, parse_config
from optex.criteria import FAMILIES, CriterionConfig, CriterionEvaluator, compound_objective
from optex.experiment import ExperimentSpec
from optex.model import (Design, FactorGrid, expand_preset, termset_from_exponents, TermSet,
                         treatment_labels)
from optex.search import (
    CoordObjective,
    PointObjective,
    build_candidates,
    coordinate_exchange,
    multi_start,
    point_exchange,
    prior_for_spec,
    random_design,
    random_start,
    restart_rng,
)


def spec_k2(family="MSE.L", kappa=(1 / 3, 1 / 3, 1 / 3), n_runs=12, n_starts=5,
            seed=101, mc_samples=50, algorithm=None):
    return ExperimentSpec(
        grid=FactorGrid.regular(2, 3), n_runs=n_runs,
        primary=expand_preset("main_effects", 2),
        potential=expand_preset("quadratic_terms", 2),
        criterion=CriterionConfig(family=family, kappa=kappa, mc_samples=mc_samples),
        n_starts=n_starts, seed=seed, algorithm=algorithm,
    )


class TestCandidates:
    def test_full_factorial_sizes(self):
        assert len(build_candidates(FactorGrid.regular(2, 3))) == 9
        assert len(build_candidates(FactorGrid.regular(3, 5))) == 125
        assert len(build_candidates(FactorGrid.regular(4, 2))) == 16

    def test_label_order(self):
        cand = build_candidates(FactorGrid.regular(3, 5))
        assert list(cand.rows[113]) == [4, 2, 3]  # label 114 = (1, 0, 0.5)
        cand2 = build_candidates(FactorGrid.regular(4, 2))
        assert list(cand2.rows[8]) == [1, 0, 0, 0]  # label 9 = (1,-1,-1,-1)

    def test_rows_carry_their_own_labels(self):
        from optex.model import treatment_labels
        grid = FactorGrid.regular(3, 4)
        cand = build_candidates(grid)
        labels = treatment_labels(cand.rows, grid)
        assert list(labels) == list(range(1, grid.n_candidates + 1))


class TestRandomStart:
    def test_deterministic_given_stream(self):
        cand = build_candidates(FactorGrid.regular(2, 3))
        a = random_start(cand, 8, restart_rng(42, 0))
        b = random_start(cand, 8, restart_rng(42, 0))
        assert np.array_equal(a, b)
        c = random_start(cand, 8, restart_rng(42, 1))
        assert not np.array_equal(a, c)

    def test_single_candidate(self):
        cand = build_candidates(FactorGrid.regular(1, 2))
        idx = random_start(cand, 3, restart_rng(0, 0))
        assert set(idx) <= {0, 1}

    def test_uniform_over_candidates(self):
        cand = build_candidates(FactorGrid.regular(2, 3))
        rng = restart_rng(7, 0)
        draws = random_start(cand, 10_000, rng)
        observed = np.bincount(draws, minlength=9)
        chi2 = float(((observed - 10_000 / 9) ** 2 / (10_000 / 9)).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=8)

    def test_random_design_matches_factorial_distribution(self):
        grid = FactorGrid.regular(2, 3)
        rng = restart_rng(8, 0)
        idx = random_design(grid, 10_000, rng)
        cells = idx[:, 0] * 3 + idx[:, 1]
        observed = np.bincount(cells, minlength=9)
        chi2 = float(((observed - 10_000 / 9) ** 2 / (10_000 / 9)).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=8)


class TestPointExchange:
    def test_fixed_point_returned_unchanged(self):
        cand = build_candidates(FactorGrid.regular(2, 3))

        def objective(idx):  # unique-rows count, negated: optimum all distinct
            return -float(np.unique(idx).size)

        start = np.arange(6)
        out = point_exchange(start, cand, objective)
        assert np.array_equal(out.state, start)
        assert out.converged
        assert out.accepted == []

    def test_distinct_rows_oracle(self):
        cand = build_candidates(FactorGrid.regular(2, 3))

        def objective(idx):
            return -float(np.unique(idx).size)

        start = np.zeros(7, dtype=np.int64)
        out = point_exchange(start, cand, objective)
        assert np.unique(out.state).size == 7
        assert out.objective == -7.0

    def test_monotone_descent(self):
        spec = spec_k2(n_runs=10)
        cand = build_candidates(spec.grid)
        objective = PointObjective(CriterionEvaluator.from_spec(spec), cand, None)
        start = random_start(cand, 10, restart_rng(3, 0))
        out = point_exchange(start, cand, objective)
        values = [float(objective(start))] + out.accepted
        assert all(a > b for a, b in zip(values, values[1:]))
        assert out.objective == values[-1]

    def test_rerun_on_output_makes_no_change(self):
        spec = spec_k2(n_runs=10)
        cand = build_candidates(spec.grid)
        objective = PointObjective(CriterionEvaluator.from_spec(spec), cand, None)
        start = random_start(cand, 10, restart_rng(4, 0))
        out = point_exchange(start, cand, objective)
        again = point_exchange(out.state, cand, objective)
        assert np.array_equal(again.state, out.state)
        assert again.accepted == []


class TestCoordinateExchange:
    def test_separable_objective_each_coordinate_optimal(self):
        grid = FactorGrid.regular(3, 5)

        def objective(labels):  # minimized at index 2 in every coordinate
            return float(((np.stack(np.unravel_index(labels, grid.levels)) - 2) ** 2).sum())

        out = coordinate_exchange(np.zeros((1, 3), dtype=np.int64), grid, objective)
        assert np.array_equal(out.state, np.array([[2, 2, 2]]) @ grid.label_strides())

    def test_objective_never_increases(self):
        spec = spec_k2(n_runs=10)
        objective = CoordObjective(CriterionEvaluator.from_spec(spec), spec.grid, None)
        for r in range(5):
            start = random_design(spec.grid, 10, restart_rng(5, r))
            out = coordinate_exchange(start, spec.grid, objective)
            labels = start @ spec.grid.label_strides()  # what coordinate exchange scores
            assert out.objective <= float(objective(labels)) + 1e-12
            values = [float(objective(labels))] + out.accepted
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_tracks_point_exchange_quality(self):
        spec = spec_k2(n_runs=12, n_starts=20, seed=17)
        best_pt = multi_start(spec.with_overrides(algorithm="ptex"), workers=1)
        best_co = multi_start(spec.with_overrides(algorithm="coordex"), workers=1)
        assert best_co.compound_value <= 1.01 * best_pt.compound_value
        assert best_pt.compound_value <= 1.01 * best_co.compound_value


class TestMultiStart:
    def test_path_length_and_best_identity(self):
        spec = spec_k2(n_starts=6)
        res = multi_start(spec, workers=1)
        assert len(res.path) == 6
        assert res.compound_value == min(res.path)
        assert res.breakdown.compound_value == pytest.approx(res.compound_value,
                                                             rel=1e-12)

    def test_single_restart(self):
        spec = spec_k2(n_starts=1)
        res = multi_start(spec, workers=1)
        assert len(res.path) == 1
        assert res.compound_value == res.path[0]

    def test_deterministic_across_worker_counts(self):
        spec = spec_k2(family="MSE.D", n_starts=6, seed=909)
        res1 = multi_start(spec, workers=1)
        res2 = multi_start(spec, workers=2)
        assert res1.path == res2.path
        assert np.array_equal(res1.design.settings, res2.design.settings)
        assert res1.breakdown == res2.breakdown
        assert res1.seed == res2.seed == 909
        assert (res1.workers, res2.workers) == (1, 2)

    def test_restart_count_is_checked(self):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            spec_k2(n_starts=0)

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True])
    def test_worker_count_is_checked(self, workers):
        with pytest.raises(ValueError, match="workers"):
            multi_start(spec_k2(n_starts=2), workers=workers)

    def test_default_workers_are_the_cpus_the_process_may_run_on(self, monkeypatch):
        # before: os.cpu_count(), every CPU of the host, so a process pinned to one
        # CPU started a pool of several workers that took turns on it
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert multi_start(spec_k2(n_starts=4)).workers == 1

    def test_best_restart_is_recorded(self):
        res = multi_start(spec_k2(n_starts=5, seed=31), workers=1)
        assert res.path[res.best_restart] == min(res.path)
        assert all(st.factorisations >= 1 for st in res.stats)

    def test_deterministic_rerun(self):
        spec = spec_k2(n_starts=4, seed=55)
        res1 = multi_start(spec, workers=1)
        res2 = multi_start(spec, workers=1)
        assert res1.path == res2.path
        assert np.array_equal(res1.design.settings, res2.design.settings)

    def test_design_rows_sorted_by_label(self):
        spec = spec_k2(n_starts=3)
        labels = list(treatment_labels(multi_start(spec, workers=1).design.settings, spec.grid))
        assert labels == sorted(labels)

    def test_default_algorithm_by_factor_count(self):
        assert spec_k2().default_algorithm() == "ptex"
        spec5 = ExperimentSpec(
            grid=FactorGrid.regular(5, 2), n_runs=12,
            primary=expand_preset("main_effects", 5),
            potential=TermSet(tuple()),
            criterion=CriterionConfig(family="MSE.L"),
        )
        assert spec5.default_algorithm() == "coordex"

    def test_coordinate_exchange_used_for_many_factors(self):
        spec = ExperimentSpec(
            grid=FactorGrid.regular(5, 2), n_runs=10,
            primary=expand_preset("main_effects", 5),
            potential=expand_preset("linear_interactions", 5),
            criterion=CriterionConfig(family="MSE.L", kappa=(0.0, 0.0, 1.0)),
            n_starts=4, seed=2,
        )
        res = multi_start(spec, workers=1)
        assert res.algorithm == "coordex"
        assert math.isfinite(res.compound_value)

    def test_prior_shared_and_reproducible(self):
        spec = spec_k2(family="MSE.D", n_starts=2, seed=31)
        p1 = prior_for_spec(spec, 31)
        p2 = prior_for_spec(spec, 31)
        assert np.array_equal(p1.draws, p2.draws)
        assert p1.draws.shape == (50, 2)
        assert prior_for_spec(spec_k2(family="MSE.L"), 31) is None

    def test_toy_brute_force_optimum(self):
        # k=1, L=3, n=3, linear primary, quadratic potential, pure MSE(L)
        grid = FactorGrid.regular(1, 3)
        spec = ExperimentSpec(
            grid=grid, n_runs=3,
            primary=termset_from_exponents([[1]], 1),
            potential=termset_from_exponents([[2]], 1),
            criterion=CriterionConfig(family="MSE.L", kappa=(0.0, 0.0, 1.0)),
            n_starts=20, seed=77,
        )
        best = math.inf
        for combo in itertools.product(range(3), repeat=3):
            d = Design(np.array(combo).reshape(3, 1))
            val = compound_objective(d, spec).compound_value
            best = min(best, val)
        res = multi_start(spec, workers=1)
        assert res.compound_value == pytest.approx(best, rel=1e-12)


# -- exchange never increases the objective ------------------------------------

@st.composite
def small_specs(draw, families=FAMILIES):
    k = draw(st.integers(1, 3))
    primary = "main_effects" if k == 1 else draw(st.sampled_from(["main_effects",
                                                                   "second_order"]))
    choices = [None, "cubic_terms"]
    if primary == "main_effects":
        choices.append("quadratic_terms")
    potential = draw(st.sampled_from(choices))
    primary_terms = expand_preset(primary, k)
    potential_terms = TermSet(()) if potential is None else expand_preset(potential, k)
    grid = FactorGrid.regular(k, draw(st.integers(2, 4)))
    criterion = CriterionConfig(
        family=draw(st.sampled_from(families)),
        kappa=draw(st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.4, 0.2, 0.4),
                                    (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])),
        tau2=draw(st.sampled_from([0.25, 1.0, 16.0])), mc_samples=8)
    # a weighted quantile-bearing component needs room for pure error
    p = len(primary_terms)
    low = p + 2 if criterion.needs_pure_error(len(potential_terms)) else p + 1
    return ExperimentSpec(
        grid=grid, n_runs=draw(st.integers(low, p + 8)), primary=primary_terms,
        potential=potential_terms, criterion=criterion,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40)
@given(small_specs(), st.sampled_from(["ptex", "coordex"]))
def test_exchange_never_increases_the_objective(spec, algorithm):
    evaluator = CriterionEvaluator.from_spec(spec)
    prior = prior_for_spec(spec, spec.seed)
    rng = restart_rng(spec.seed, 0)
    if algorithm == "ptex":
        cand = build_candidates(spec.grid)
        objective = PointObjective(evaluator, cand, prior)
        start = random_start(cand, spec.n_runs, rng)
        out = point_exchange(start, cand, objective)
    else:
        objective = CoordObjective(evaluator, spec.grid, prior)
        settings = random_design(spec.grid, spec.n_runs, rng)
        out = coordinate_exchange(settings, spec.grid, objective)
        start = settings @ spec.grid.label_strides()  # the labels coordinate exchange scores
    values = [float(objective(start))] + out.accepted
    assert all(a > b for a, b in zip(values, values[1:]))  # accepted values strictly fall
    assert out.objective == values[-1] <= values[0]


# -- the dismiss rule on Python floats -----------------------------------------

# NaN, infinities, signed zeros, subnormals, the least normal and huge values
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, -2.2250738585072014e-308, 1e300, -1e300]


@st.composite
def dismiss_inputs(draw):
    """(cur, s_min, e_min): special or arbitrary floats, and floats a few ulps either
    side of the REL_TOL edge (what beats cur) and of the SCREEN_TOL band's."""
    def value():
        return draw(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()))

    def near(x):
        steps = draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            x = math.nextafter(x, math.copysign(math.inf, steps))
        return x

    tol = search.SCREEN_TOL
    cur = value()
    edge = cur - search.REL_TOL * abs(cur)  # a value must lie below it to improve on cur
    # the s_min whose band, s_min - tol * (1 + |s_min|), is the edge
    s_min = near((edge + tol) / (1.0 - tol if edge >= -tol else 1.0 + tol)) if draw(
        st.booleans()) else value()
    band = s_min - tol * (1.0 + abs(s_min))
    e_min = [value, lambda: near(edge), lambda: near(band)][draw(st.integers(0, 2))]()
    return cur, s_min, e_min


@settings(max_examples=1000)
@given(dismiss_inputs())
@example((0.0, math.inf, -1.0))  # a NaN band (inf - inf) below a low exact value
@example((1.0, math.nan, 0.0))
@example((1.0, 0.5, math.nan))
def test_dismiss_rule_is_the_vectorised_one(inputs):
    # The exchange decides each group on Python floats; the rule is bit for
    # bit np.minimum's, NaN propagation included (Python's min drops a NaN
    # that is not its first argument).
    cur, s_min, e_min = inputs
    with np.errstate(all="ignore"):
        band = np.minimum(e_min, s_min - search.SCREEN_TOL * (1 + abs(s_min)))
        expected = bool(search._improves(cur, band))
    assert search._may_improve(cur, s_min, e_min) == expected


# -- the result does not depend on the worker count ----------------------------

@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=2)  # every example starts two process pools
@given(data=st.data())
def test_multi_start_is_independent_of_the_worker_count(family, data):
    spec = data.draw(small_specs(families=(family,))).with_overrides(n_starts=3)
    first, *others = (multi_start(spec, workers=w) for w in (1, 2, 3))
    for res in others:
        assert np.array_equal(res.design.settings, first.design.settings)
        # repr: NaN entries compare equal
        assert repr(res.path) == repr(first.path)
        assert repr(res.breakdown) == repr(first.breakdown)
        assert res.best_restart == first.best_restart


# -- restarts in lockstep blocks ------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("n_starts", [1, 2, 7, 17, 50])
def test_blocks_are_consecutive_and_balanced(n_starts, block, workers, monkeypatch):
    monkeypatch.setattr(search, "RESTART_BLOCK", block)
    blocks = search._blocks(n_starts, workers)
    assert [r for b in blocks for r in b] == list(range(n_starts))
    sizes = [len(b) for b in blocks]
    assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
    # a multiple of the worker count, unless that many blocks would leave some empty
    assert len(blocks) % workers == 0 or sizes == [1] * n_starts


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config, algorithm, starts, blocks, chunk", [
    pytest.param("k4_two_level.yaml", "ptex", 17, (1, 3, 16), None,
                 id="k4_two_level.yaml-ptex"),
    pytest.param("quickstart.yaml", "coordex", 17, (1, 3, 16), None,
                 id="quickstart.yaml-coordex"),
    pytest.param("k3_response_surface.yaml", "coordex", 6, (1, 4, 16), None,
                 id="k3_response_surface.yaml-coordex"),
    # no kept rows: 2,048 entries hold 85 of the 125 labels' candidate halves
    pytest.param("k3_response_surface.yaml", "coordex", 6, (1, 4, 16), 2048,
                 id="k3_response_surface.yaml-coordex-no-table"),
    # the case study by point exchange: windows of up to 10 runs, from the kept rows
    pytest.param("k3_response_surface.yaml", "ptex", 8, (1, 2, 4), None,
                 id="k3_response_surface.yaml-ptex"),
])
def test_a_restart_does_not_depend_on_its_block(config, algorithm, starts, blocks, chunk,
                                                monkeypatch):
    # A worker runs consecutive restarts in lockstep, their exact calls,
    # refreshes and screens stacked; each restart's design, value and counters
    # are those it reaches alone, at any block size and worker count.
    spec = apply_overrides(parse_config(CONFIGS / config), starts=starts,
                           algorithm=algorithm).experiment
    if chunk is not None:
        monkeypatch.setattr(criteria, "SCREEN_CHUNK", chunk)
    objective = search._LabelObjective(CriterionEvaluator.from_spec(spec), spec.grid,
                                       prior_for_spec(spec, spec.seed))
    assert (objective._rows is None) == (chunk is not None)
    if algorithm == "ptex":  # the case study's 124-move groups: windows of up to 10 runs
        groups = search._point_moves(np.zeros(spec.n_runs), build_candidates(spec.grid))[1]
        assert search._run_window(objective, groups) == (10 if spec.grid.n_candidates == 125
                                                         else 0)
    seen = {}
    for block in blocks:
        monkeypatch.setattr(search, "RESTART_BLOCK", block)
        for workers in (1, 2):
            result = multi_start(spec, workers=workers)
            counters = [dataclasses.replace(s, seconds=0.0) for s in result.stats]
            seen[block, workers] = (result.design.settings.tobytes(), result.path, counters,
                                    result.non_converged)
    first = seen[1, 1]
    assert all(outcome == first for outcome in seen.values())
    assert len(set(first[1])) > 1  # the restarts differ


@pytest.mark.parametrize("config, algorithm, starts", [
    ("k3_response_surface.yaml", "ptex", 3),
    ("k3_response_surface.yaml", "coordex", 4),
    ("k4_two_level.yaml", None, 4),  # MSE.L
    ("quickstart.yaml", None, 4),  # MSE.D
])
def test_each_restart_is_the_one_restart_exchange(config, algorithm, starts):
    # multi_start runs every restart in a lockstep block; point_exchange and
    # coordinate_exchange run one restart alone, on a fresh objective, from the
    # same start. Each restart's value, counters and the best design agree.
    spec = apply_overrides(parse_config(CONFIGS / config), starts=starts,
                           algorithm=algorithm).experiment
    result = multi_start(spec, workers=1)
    evaluator, prior = CriterionEvaluator.from_spec(spec), prior_for_spec(spec, spec.seed)
    cand = build_candidates(spec.grid)
    outcomes = []
    for r, stats in enumerate(result.stats):
        rng = restart_rng(spec.seed, r)
        objective = search._LabelObjective(evaluator, spec.grid, prior)
        if result.algorithm == "ptex":
            out = point_exchange(random_start(cand, spec.n_runs, rng), cand, objective)
        else:
            out = coordinate_exchange(random_design(spec.grid, spec.n_runs, rng), spec.grid,
                                      objective)
        assert math.exp(out.objective) == result.path[r]
        assert (out.passes, out.screened, out.screen_calls, out.exact, len(out.accepted),
                objective.factorisations) == (
            stats.passes, stats.screened_moves, stats.screen_calls, stats.exact_evaluations,
            stats.accepted_exchanges, stats.factorisations)
        outcomes.append(out)
    best = outcomes[result.best_restart].state
    assert np.array_equal(np.sort(best), treatment_labels(result.design.settings, spec.grid) - 1)
    assert len(set(result.path)) > 1  # the restarts differ


# CriterionEvaluator.screen_block calls, and the moves screened in stacks of
# several restarts (with `parts`), of each golden case (8 restarts, 1 worker)
GROUPING = {
    ("quickstart.yaml", "ptex"): (183, 0),
    ("quickstart.yaml", "coordex"): (148, 268),
    ("k4_two_level.yaml", "ptex"): (56, 2460),
    ("k4_two_level.yaml", "coordex"): (38, 1271),
    ("k3_response_surface.yaml", "ptex"): (412, 0),
    ("k3_response_surface.yaml", "coordex"): (174, 32764),
}


@pytest.mark.parametrize("config, algorithm", list(GROUPING))
def test_the_lockstep_grouping_is_pinned(config, algorithm, monkeypatch):
    # A block answers every screen that cannot stack first, then the rest in
    # one call: the stacks, and so each restart's block timing, stay those of
    # this grouping. Answering every screening restart's call together instead
    # splits stacks, with the same designs and counters.
    run = apply_overrides(parse_config(CONFIGS / config), starts=8, algorithm=algorithm)
    counts = [0, 0]
    screen_block = CriterionEvaluator.screen_block

    def counted(self, current, run_half, half, pe_df, parts=None):
        counts[0] += 1
        counts[1] += 0 if parts is None else pe_df.size
        return screen_block(self, current, run_half, half, pe_df, parts)

    monkeypatch.setattr(CriterionEvaluator, "screen_block", counted)
    multi_start(run.experiment, workers=1)
    assert tuple(counts) == GROUPING[config, algorithm]
