"""The batched move screen and the exchange loop that confirms its choices.

The screen only ranks moves; every accepted value comes from the scalar
objective. These tests pin the screen's safety rules one by one and check,
against the per-move loops in ``oracles.py``, that exchange outcomes are
identical to scoring every move on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optex import criteria
from optex.criteria import FAMILIES, CriterionConfig, CriterionEvaluator
from optex.experiment import ExperimentSpec
from optex.model import FactorGrid, TermSet, expand_preset
from optex.search import (
    CoordObjective,
    PointObjective,
    build_candidates,
    coordinate_exchange,
    point_exchange,
    prior_for_spec,
    random_design,
    random_start,
    restart_rng,
)

from oracles import per_move_coordinate_exchange, per_move_point_exchange


def make_spec(family="MSE.P", kappa=(0.4, 0.2, 0.4), k=2, levels=3, n_runs=10,
              primary="main_effects", potential="quadratic_terms", tau2=1.0,
              mc_samples=20, seed=11):
    return ExperimentSpec(
        grid=FactorGrid.regular(k, levels), n_runs=n_runs,
        primary=expand_preset(primary, k),
        potential=(expand_preset(potential, k, role="potential") if potential
                   else TermSet(tuple(), role="potential")),
        criterion=CriterionConfig(family=family, kappa=kappa, tau2=tau2,
                                  mc_samples=mc_samples),
        n_starts=1, seed=seed,
    )


def point_setup(spec):
    cand = build_candidates(spec.grid)
    objective = PointObjective(CriterionEvaluator.from_spec(spec), cand,
                               prior_for_spec(spec, spec.seed))
    return cand, objective


def exact_moves(objective, state, pos, options):
    state = state.copy()
    out = []
    for v in options:
        state[pos] = v
        out.append(float(objective(state)))
    return np.array(out)


class TestMoveScreen:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_screen_ranks_like_the_exact_objective(self, family):
        spec = make_spec(family=family, kappa=(1 / 3, 1 / 3, 1 / 3))
        cand, objective = point_setup(spec)
        idx = random_start(cand, spec.n_runs, restart_rng(5, 0))
        for i in range(spec.n_runs):
            options = np.delete(np.arange(len(cand)), idx[i])
            screened = objective.screen(idx, i, options)
            exact = exact_moves(objective, idx, i, options)
            close = np.isfinite(screened)
            assert close.any()
            np.testing.assert_allclose(screened[close], exact[close], rtol=1e-11,
                                       atol=1e-11)
            assert np.all(exact[screened == np.inf] == np.inf)

    def test_screen_follows_the_current_rows(self):
        # The Gram matrix comes from the rows as they are now, not from
        # updates carried over from earlier groups.
        spec = make_spec()
        cand, objective = point_setup(spec)
        idx = random_start(cand, spec.n_runs, restart_rng(6, 0))
        options = np.delete(np.arange(len(cand)), idx[0])
        objective.screen(idx, 0, options)
        for i, c in ((3, 4), (5, 0), (3, 8)):
            idx[i] = c
        after = objective.screen(idx, 0, options)
        fresh = point_setup(spec)[1].screen(idx.copy(), 0, options)
        np.testing.assert_array_equal(after, fresh)
        np.testing.assert_allclose(after, exact_moves(objective, idx, 0, options),
                                   rtol=1e-11)

    def test_non_positive_definite_chunk_is_scored_exactly(self, monkeypatch):
        # k=1, linear primary: moving run 2 onto run 1's setting x = 0 leaves
        # M = 0 exactly, and one such matrix fails the whole stacked Cholesky.
        spec = make_spec(family="MSE.L", kappa=(0.0, 0.0, 1.0), k=1, n_runs=2,
                         potential=None)
        cand, objective = point_setup(spec)
        idx = np.array([1, 0])
        options = np.array([1, 2])
        assert np.all(np.isnan(objective.screen(idx, 1, options)))
        monkeypatch.setattr(criteria, "SCREEN_CHUNK", 1)
        single = objective.screen(idx, 1, options)
        assert math.isnan(single[0]) and math.isfinite(single[1])
        assert exact_moves(objective, idx, 1, options)[0] == math.inf

    def test_near_singular_pivot_is_scored_exactly(self):
        # Two primary columns almost collinear: the exact SPD rule still
        # accepts M, but its pivot lies inside the screen's safety margin.
        spec = make_spec(family="MSE.L", kappa=(0.0, 0.0, 1.0), potential=None)
        evaluator = CriterionEvaluator.from_spec(spec)
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-1, 1, size=10)
        X1 = np.column_stack([x1, x1 + 2e-4 * rng.uniform(-1, 1, size=10)])
        W = np.column_stack([np.ones(10), X1])
        pivots = np.diag(np.linalg.cholesky(W.T @ W)) ** 2
        assert (criteria.SPD_TOL * 10 < pivots.min()
                <= criteria.PIVOT_MARGIN * criteria.SPD_TOL * 10)
        screened = evaluator.screen_moves(W[1:].T @ W[1:], W[:1], np.array([5]))
        assert math.isnan(screened[0])
        assert math.isfinite(evaluator.log_objective(X1, np.zeros((10, 0)), 5))

    def test_non_finite_screened_values_are_scored_exactly(self, monkeypatch):
        spec = make_spec(kappa=(0.4, 0.2, 0.4))
        evaluator = CriterionEvaluator.from_spec(spec)
        monkeypatch.setattr(evaluator, "_screen_chunk", lambda *args: np.array(
            [np.inf, -np.inf, np.nan, 0.5, 0.5]))
        m = 1 + spec.p + spec.q
        out = evaluator.screen_moves(np.eye(m), np.zeros((5, m)),
                                     np.array([1, 1, 1, 1, 0]))
        # NaN: score exactly; +inf only where no pure error makes it certain
        assert np.all(np.isnan(out[:3]))
        assert out[3] == 0.5 and out[4] == math.inf

    @pytest.mark.parametrize("kappa, certain", [((1.0, 0.0, 0.0), True),
                                                ((0.0, 1.0, 0.0), True),
                                                ((0.0, 0.0, 1.0), False)])
    def test_no_pure_error_maps_to_inf_only_under_quantile_weights(self, kappa, certain):
        spec = make_spec(kappa=kappa, n_runs=6)
        cand, objective = point_setup(spec)
        idx = np.array([0, 1, 2, 3, 4, 4])
        options = np.delete(np.arange(len(cand)), 4)
        screened = objective.screen(idx, 5, options)
        exact = exact_moves(objective, idx, 5, options)
        fresh = ~np.isin(options, idx[:5])  # pe_df = 0 after the move
        assert np.all(exact[fresh] == math.inf) == certain
        assert np.all(screened[fresh] == math.inf) == certain

    def test_chunks_give_the_same_values(self, monkeypatch):
        spec = make_spec(family="MSE.D", k=3, levels=3, n_runs=14,
                         potential="linear_interactions")
        cand, objective = point_setup(spec)
        idx = random_start(cand, spec.n_runs, restart_rng(8, 0))
        options = np.delete(np.arange(len(cand)), idx[2])
        whole = objective.screen(idx, 2, options)
        monkeypatch.setattr(criteria, "SCREEN_CHUNK", 4)
        np.testing.assert_allclose(objective.screen(idx, 2, options), whole,
                                   rtol=1e-12)


class _Table:
    """Objective of a one-run design: table[candidate], with a tunable screen."""

    def __init__(self, table, screen_error):
        self.table = np.asarray(table, dtype=float)
        self.screen_error = np.asarray(screen_error, dtype=float)
        self.calls = 0

    def __call__(self, idx):
        self.calls += 1
        return float(self.table[idx[0]])

    def screen(self, idx, pos, options):
        return self.table[options] + self.screen_error[options]


class TestConfirm:
    def test_disagreeing_screen_rescores_the_group(self):
        # Option 0 screens far below its exact value; once the confirm sees
        # that, every option is scored exactly and the true best (1) wins.
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Table([3.0, 1.0, 2.0, 4.0, 5.0], [-13.0, 0, 0, 0, 0])
        out = point_exchange(np.array([4]), cand, objective, max_passes=1)
        assert list(out.state) == [1]
        assert out.accepted == [1.0]
        assert out.exact == 1 + 4  # the start, then all four options

    def test_screened_choice_is_confirmed_once(self):
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Table([3.0, 1.0, 2.0, 4.0, 5.0], [0, 1e-13, 0, 0, 0])
        out = point_exchange(np.array([4]), cand, objective, max_passes=1)
        assert list(out.state) == [1]
        assert out.exact == 1 + 1
        assert out.screened == 4

    def test_confirm_skipped_when_no_move_can_improve(self):
        # Even the best screened option minus its tolerance cannot beat the
        # current value: no exact call beyond the start's.
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Table([1.5, 1.0 + 1e-6, 2.0, 4.0, 1.0], [0, 0, 0, 0, 0])
        out = point_exchange(np.array([4]), cand, objective)
        assert out.accepted == [] and out.converged
        assert out.exact == 1 and objective.calls == 1

    def test_bare_callable_scores_every_move(self):
        spec = make_spec()
        cand, objective = point_setup(spec)
        start = random_start(cand, spec.n_runs, restart_rng(10, 0))
        out = point_exchange(start, cand, lambda idx: objective(idx))
        assert out.screened == 0
        assert out.exact == 1 + out.passes * spec.n_runs * (len(cand) - 1)


# -- identical outcomes to per-move scoring ------------------------------------

@st.composite
def exchange_specs(draw):
    k = draw(st.integers(1, 3))
    levels = draw(st.integers(2, 4))
    if k == 1:
        primary = "main_effects"
        potential = draw(st.sampled_from([None, "quadratic_terms", "cubic_terms"]))
    else:
        primary = draw(st.sampled_from(["main_effects", "second_order"]))
        choices = [None, "cubic_terms"]
        if primary == "main_effects":
            choices += ["quadratic_terms", "linear_interactions"]
        potential = draw(st.sampled_from(choices))
    p = len(expand_preset(primary, k))
    # near-saturated sizes make singular M and pe_df = 0 moves common
    n_runs = draw(st.one_of(st.integers(p + 1, p + 3), st.integers(p + 4, p + 10)))
    family = draw(st.sampled_from(FAMILIES))
    kappa = draw(st.sampled_from([(1 / 3, 1 / 3, 1 / 3), (0.4, 0.2, 0.4), (1.0, 0.0, 0.0),
                                  (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.0, 0.5)]))
    tau2 = draw(st.sampled_from([0.25, 1.0, 16.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_spec(family=family, kappa=kappa, k=k, levels=levels, n_runs=n_runs,
                     primary=primary, potential=potential, tau2=tau2, mc_samples=8,
                     seed=seed)


def assert_same_outcome(out, ref):
    state, objective, passes, converged, accepted = ref
    assert np.array_equal(out.state, state)
    assert out.objective == objective or (math.isnan(out.objective) and math.isnan(objective))
    assert (out.passes, out.converged) == (passes, converged)
    assert out.accepted == accepted


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exchange_specs())
def test_point_exchange_matches_per_move_scoring(spec):
    cand, objective = point_setup(spec)
    start = random_start(cand, spec.n_runs, restart_rng(spec.seed, 0))
    out = point_exchange(start, cand, objective)
    assert_same_outcome(out, per_move_point_exchange(start, len(cand), objective))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exchange_specs())
def test_coordinate_exchange_matches_per_move_scoring(spec):
    objective = CoordObjective(CriterionEvaluator.from_spec(spec), spec.grid,
                               prior_for_spec(spec, spec.seed))
    start = random_design(spec.grid, spec.n_runs, restart_rng(spec.seed, 0))
    out = coordinate_exchange(start, spec.grid, objective)
    assert_same_outcome(out, per_move_coordinate_exchange(start, spec.grid.levels,
                                                          objective))
