"""The rank-two move screen and the exchange loop that confirms its choices.

The screen only ranks moves; every accepted value comes from the scalar
objective. These tests pin the screen's safety rules one by one and check,
against the per-move loops in ``oracles.py``, that exchange outcomes are
identical to scoring every move on its own.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optex import criteria, search
from optex.criteria import (
    FAMILIES,
    CriterionConfig,
    CriterionEvaluator,
    compound_objective,
    information_factor,
)
from optex.experiment import ExperimentSpec
from optex.model import (
    Design,
    FactorGrid,
    TermSet,
    expand_preset,
    monomial_matrix,
    replication,
    termset_from_exponents,
    treatment_labels,
)
from optex.numeric import sample_prior
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

from oracles import per_move_coordinate_exchange, per_move_point_exchange


@pytest.fixture(scope="module", autouse=True)
def quiet_screens():
    """Screens run under the np.errstate that exchange sets; the direct calls here set it too."""
    with np.errstate(**criteria.QUIET):
        yield


def make_spec(family="MSE.P", kappa=(0.4, 0.2, 0.4), k=2, levels=3, n_runs=10,
              primary="main_effects", potential="quadratic_terms", tau2=1.0,
              mc_samples=20, seed=11):
    return ExperimentSpec(
        grid=FactorGrid.regular(k, levels), n_runs=n_runs,
        primary=expand_preset(primary, k),
        potential=expand_preset(potential, k) if potential else TermSet(()),
        criterion=CriterionConfig(family=family, kappa=kappa, tau2=tau2,
                                  mc_samples=mc_samples),
        n_starts=1, seed=seed,
    )


def point_setup(spec):
    cand = build_candidates(spec.grid)
    objective = PointObjective(CriterionEvaluator.from_spec(spec), cand,
                               prior_for_spec(spec, spec.seed))
    return cand, objective


def exact_factor(objective, labels):
    """The exact call's factor of the design whose runs carry `labels`, a stack of one."""
    return objective.evaluator.exact_factor(objective._w(labels)[None, :, 1:].copy(),
                                            objective.prior)


def placed_factor(evaluator, w, prior, factor):
    """The screen's factor of `factor`, a stack of one, with the runs of W-rows `w`
    placed, as the objective's refresh places them without a kept table; None
    when its moves are not screened."""
    current = evaluator.factor_current(prior, factor)
    if not current.screened[0]:
        return None
    evaluator.place_runs(current, evaluator.candidate_half(current, w[None]))
    return current.item(0)


def screen_rows(evaluator, current, runs, rows, pe_df):
    """The screen of moving run runs[c] (one index serves every move) of `current`, a
    placed factor or None, to W-row rows[c], in one screen_block call: not cut into
    blocks."""
    if current is None:
        return evaluator.screen_block(None, None, None, pe_df)
    return evaluator.screen_block(current, current.per_run[:, np.atleast_1d(runs)],
                                  evaluator.candidate_half(current, rows), pe_df)


def exact_moves(objective, state, run, options):
    state = state.copy()
    out = []
    for v in options:
        state[run] = v
        out.append(float(objective(state)))
    return np.array(out)


def relabel(state, group, value):
    """Run group[0]'s label with the group's digit set to `value`; a move group is
    (run, n_values, stride), as `search.exchange` takes it."""
    run, n_values, stride = group
    return state[run] + (value - state[run] // stride % n_values) * stride


def group_options(state, group):
    """The new labels of every move of `group`, in the order exchange lays them out."""
    labels = np.array([relabel(state, group, v) for v in range(group[1])], dtype=np.int64)
    return labels[labels != state[group[0]]]


def point_groups(spec):
    return [(i, spec.grid.n_candidates, 1) for i in range(spec.n_runs)]


def coordinate_groups(spec):
    strides = spec.grid.label_strides()
    return [(i, levels, strides[j]) for i in range(spec.n_runs)
            for j, levels in enumerate(spec.grid.levels)]


def coordinate_start(spec, rng):
    """random_design's (n, k) start as the labels coordinate exchange turns it into."""
    return random_design(spec.grid, spec.n_runs, rng) @ spec.grid.label_strides()


SCREEN_CASES = {
    "point": {},
    "coordinate": {},
    "no-potential": {"potential": None},
    "no-pure-error": {"n_runs": 6},
    "singular": {},
}


class TestMoveScreen:
    @pytest.mark.parametrize("family, case", [
        pytest.param(family, case, id=family if case == "point" else f"{family}-{case}")
        for case in SCREEN_CASES for family in FAMILIES])
    def test_screen_ranks_like_the_exact_objective(self, family, case):
        spec = make_spec(family=family, kappa=(1 / 3, 1 / 3, 1 / 3), **SCREEN_CASES[case])
        cand, objective = point_setup(spec)
        state = random_start(cand, spec.n_runs, restart_rng(5, 0))
        groups = point_groups(spec)
        if case == "coordinate":
            objective = CoordObjective(CriterionEvaluator.from_spec(spec), spec.grid,
                                       prior_for_spec(spec, spec.seed))
            state = coordinate_start(spec, restart_rng(5, 0))
            groups = coordinate_groups(spec)
        elif case == "no-pure-error":
            state = np.array([0, 1, 2, 3, 4, 4])  # moving run 5 to a fresh point leaves none
        elif case == "singular":
            state = np.array([0, 1, 2] * 3 + [0])  # x1 = -1 in every run: M is singular
        for group in groups:
            options = group_options(state, group)
            screened = objective.screen(state, group[0], options)
            exact = exact_moves(objective, state, group[0], options)
            close = np.isfinite(screened)
            # a singular current design has no factor: all its moves are scored exactly
            assert close.any() != (case == "singular")
            np.testing.assert_allclose(screened[close], exact[close], rtol=1e-11,
                                       atol=1e-11)
            assert np.all(exact[screened == np.inf] == np.inf)
        if case == "no-pure-error":
            assert np.isinf(screened).any()

    def test_screen_follows_the_current_rows(self):
        # The factor comes from the rows as they are now: changing them
        # rebuilds it, and the result equals a fresh objective's.
        spec = make_spec()
        cand, objective = point_setup(spec)
        idx = random_start(cand, spec.n_runs, restart_rng(6, 0))
        options = np.delete(np.arange(len(cand)), idx[0])
        objective.screen(idx, 0, options)
        objective.screen(idx, 1, np.delete(np.arange(len(cand)), idx[1]))
        assert objective.factorisations == 1  # same design, same factor
        for i, c in ((3, 4), (5, 0), (3, 8)):
            idx[i] = c
        after = objective.screen(idx, 0, options)
        assert objective.factorisations == 2
        fresh = point_setup(spec)[1].screen(idx.copy(), 0, options)
        np.testing.assert_array_equal(after, fresh)
        np.testing.assert_allclose(after, exact_moves(objective, idx, 0, options),
                                   rtol=1e-11)

    def test_factor_is_kept_per_objective(self):
        # Two specs, one design: each objective builds and reads its own factor.
        cand, tight = point_setup(make_spec(tau2=0.25))
        loose = point_setup(make_spec(tau2=16.0))[1]
        idx = random_start(cand, 10, restart_rng(7, 0))
        options = np.delete(np.arange(len(cand)), idx[0])
        screened = {name: obj.screen(idx, 0, options)
                    for name, obj in (("tight", tight), ("loose", loose))}
        assert tight.factorisations == loose.factorisations == 1
        assert not np.allclose(screened["tight"], screened["loose"])
        for name, obj in (("tight", tight), ("loose", loose)):
            np.testing.assert_allclose(screened[name], exact_moves(obj, idx, 0, options),
                                       rtol=1e-11)

    def test_singular_move_is_scored_exactly(self):
        # k=1, linear primary: moving run 2 onto run 1's setting x = 0 leaves
        # M = 0 exactly; the downdate fails and only that move is NaN.
        spec = make_spec(family="MSE.L", kappa=(0.0, 0.0, 1.0), k=1, n_runs=2,
                         potential=None)
        cand, objective = point_setup(spec)
        idx = np.array([1, 0])
        options = np.array([1, 2])
        screened = objective.screen(idx, 1, options)
        assert math.isnan(screened[0]) and math.isfinite(screened[1])
        assert exact_moves(objective, idx, 1, options)[0] == math.inf

    def test_singular_current_design_is_scored_exactly(self):
        spec = make_spec(family="MSE.L", kappa=(0.0, 0.0, 1.0), k=1, n_runs=2,
                         potential=None)
        cand, objective = point_setup(spec)
        idx = np.array([1, 1])  # both runs at x = 0: M = 0
        assert placed_factor(objective.evaluator, objective._w(idx), None,
                             exact_factor(objective, idx)) is None
        options = np.array([0, 2])
        assert np.all(np.isnan(objective.screen(idx, 1, options)))
        assert np.all(np.isfinite(exact_moves(objective, idx, 1, options)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_near_singular_current_design_is_scored_exactly(self, family):
        # k = 1 with every run at x = -1 or 1: x^2 is constant, so R + I/tau2
        # is its ridge alone. The exact rule passes it, but its pivot's limit
        # is not below 1, so the screen has no factor and every move is NaN.
        spec = make_spec(family=family, k=1, n_runs=6, tau2=1e12, mc_samples=5)
        cand, objective = point_setup(spec)
        idx = np.array([0, 0, 0, 2, 2, 2])
        assert math.isfinite(objective(idx))
        assert placed_factor(objective.evaluator, objective._w(idx), objective.prior,
                             exact_factor(objective, idx)) is None
        for run in (0, 3):  # every move keeps pure error, so none is certainly +inf
            options = np.delete(np.arange(len(cand)), idx[run])
            assert np.all(np.isnan(objective.screen(idx, run, options)))
        out = point_exchange(idx, cand, objective)
        assert_same_outcome(out, per_move_point_exchange(idx, len(cand), objective))

    def test_near_singular_pivot_is_scored_exactly(self):
        # Two primary columns almost collinear after the move: the exact SPD
        # rule still accepts M, but its pivot lies inside the screen's margin.
        spec = make_spec(family="MSE.L", kappa=(0.0, 0.0, 1.0), potential=None)
        evaluator = CriterionEvaluator.from_spec(spec)
        rng = np.random.default_rng(3)
        x1 = rng.uniform(-1, 1, size=10)
        X1 = np.column_stack([x1, x1 + 2e-4 * rng.uniform(-1, 1, size=10)])
        W = np.column_stack([np.ones(10), X1])
        pivots = np.diag(np.linalg.cholesky(W.T @ W)) ** 2
        assert (criteria.SPD_TOL * 10 < pivots.min()
                <= criteria.PIVOT_MARGIN * criteria.SPD_TOL * 10)
        current = W.copy()
        current[0, 1:] = [0.5, -0.5]  # a well-conditioned design one move away
        factor = placed_factor(
            evaluator, current, None, evaluator.exact_factor(current[None, :, 1:].copy(), None))
        assert factor is not None
        screened = screen_rows(evaluator, factor, 0, W[:1], np.array([5]))
        assert math.isnan(screened[0])
        exact = evaluator.exact_factor(X1[None], None)
        assert math.isfinite(evaluator.factor_objective(exact, 5)[0])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_near_singular_potential_pivot_is_scored_exactly(self, family):
        # k = 1 on {-1, 0, 1} with potential x^2 and tau2 = 1e12: moving the
        # run at x = 0 leaves two distinct settings, on which x^2 lies in the
        # span of [1, x]. The exact rule passes R + I/tau2 on its ridge alone,
        # a finite value, but its pivot lies inside the screen's margin, so
        # neither the certificate nor the per-pivot rule may screen the move.
        spec = make_spec(family=family, k=1, n_runs=4, tau2=1e12, mc_samples=5)
        cand, objective = point_setup(spec)
        idx = np.array([0, 1, 2, 2])
        options = np.array([0, 2])
        assert placed_factor(objective.evaluator, objective._w(idx), objective.prior,
                             exact_factor(objective, idx)) is not None
        assert np.all(np.isnan(objective.screen(idx, 1, options)))
        assert np.all(np.isfinite(exact_moves(objective, idx, 1, options)))

    @pytest.mark.parametrize("family", ["MSE.P", "MSE.L"])
    def test_non_finite_screened_values_are_scored_exactly(self, monkeypatch, family):
        spec = make_spec(family=family, kappa=(0.4, 0.2, 0.4))
        cand, objective = point_setup(spec)
        idx = random_start(cand, spec.n_runs, restart_rng(4, 0))
        evaluator = objective.evaluator
        factor = placed_factor(evaluator, objective._w(idx), objective.prior,
                               exact_factor(objective, idx))
        # the folded value less its quantile term, as either family's screen forms it
        moved_terms = evaluator._moved_terms
        monkeypatch.setattr(evaluator, "_moved_terms", lambda *args: (
            moved_terms(*args)[0], np.array([np.inf, -np.inf, np.nan, 0.5, 0.5])))
        out = screen_rows(evaluator, factor, 0, objective._w(np.arange(5)),
                          np.array([1, 1, 1, 1, 0]))
        # NaN: score exactly; +inf only where no pure error makes it certain
        assert np.all(np.isnan(out[:3]))
        assert out[3] == evaluator._log_f[1] + 0.5 and out[4] == math.inf

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
        # every move is read from the shared factor on its own, so splitting
        # the moves into chunks changes nothing but rounding in the products
        spec = make_spec(family="MSE.D", k=3, levels=3, n_runs=14,
                         potential="linear_interactions")
        cand, objective = point_setup(spec)
        idx = random_start(cand, spec.n_runs, restart_rng(8, 0))
        options = np.delete(np.arange(len(cand)), idx[2])
        whole = objective.screen(idx, 2, options)
        monkeypatch.setattr(criteria, "SCREEN_CHUNK", 4)  # before the objective reads it
        chunked = point_setup(spec)[1]
        assert chunked._block < options.size
        np.testing.assert_allclose(chunked.screen(idx, 2, options), whole,
                                   rtol=1e-14, atol=0)

    def test_a_no_table_screen_maps_one_block_of_rows_at_a_time(self, monkeypatch):
        # Without a candidate table, a point-exchange group's screen maps the
        # W-rows of one block of moves at a time, never all of them, and gives
        # the values of one uncut call.
        spec = make_spec(family="MSE.D", k=3, levels=3, n_runs=14,
                         potential="linear_interactions")
        evaluator = CriterionEvaluator.from_spec(spec)
        rows = evaluator.half_rows(prior_for_spec(spec, spec.seed))
        monkeypatch.setattr(criteria, "SCREEN_CHUNK", 5 * rows)  # before the objective reads it
        cand, objective = point_setup(spec)
        assert objective._rows is None and objective._block == 5
        idx = random_start(cand, spec.n_runs, restart_rng(8, 0))
        options = np.delete(np.arange(len(cand)), idx[2])
        search._refresh_all([objective], [idx])
        factor = objective._factor
        assert factor is not None
        uncut = screen_rows(objective.evaluator, factor, 2, objective._w(options),
                            objective._replication.moved(idx[2], options))
        mapped, w = [], search._LabelObjective._w
        monkeypatch.setattr(search._LabelObjective, "_w",
                            lambda self, labels: mapped.append(np.size(labels)) or w(self, labels))
        values = objective.screen(idx, 2, options)
        assert mapped and max(mapped) <= objective._block
        np.testing.assert_allclose(values, uncut, rtol=1e-14, atol=0)

    def test_candidate_table_is_built_with_the_factor(self):
        # The table of candidate halves is built by the first screen of a
        # design, not by the constructor, and is rebuilt with the factor.
        spec = make_spec()
        cand, objective = point_setup(spec)
        assert objective._table is None
        idx = random_start(cand, spec.n_runs, restart_rng(9, 0))
        objective.screen(idx, 0, np.delete(np.arange(len(cand)), idx[0]))
        half = objective._table
        assert half.shape == (objective._factor.half_rows, len(cand))
        # the maps' rows and two running sums, at the ends of the M block and of S
        assert objective._factor.half_rows == objective._factor.maps.shape[0] + 2
        assert objective._factor.per_run.shape == (objective._factor.half_rows, spec.n_runs)
        assert half.size <= criteria.SCREEN_CHUNK
        idx[0] = (idx[0] + 1) % len(cand)
        objective.screen(idx, 1, np.delete(np.arange(len(cand)), idx[1]))
        assert objective.factorisations == 2
        rebuilt = objective.evaluator.candidate_half(objective._factor,
                                                     objective._w(np.arange(len(cand))))
        assert np.array_equal(objective._table, rebuilt)

    def test_no_moves_screen_to_an_empty_array(self):
        # before: the block loop built no block and np.concatenate([]) raised
        spec = make_spec()
        cand, objective = point_setup(spec)
        idx = random_start(cand, spec.n_runs, restart_rng(4, 0))
        factor = placed_factor(objective.evaluator, objective._w(idx), objective.prior,
                               exact_factor(objective, idx))
        none = np.zeros(0, dtype=np.int64)
        out = screen_rows(objective.evaluator, factor, none, objective._w(none), none)
        assert out.shape == (0,)
        assert objective.screen(idx, none, none).shape == (0,)

    def test_objective_keeps_nothing_sized_by_the_candidates(self):
        # The candidate halves of 15^4 labels do not fit one SCREEN_CHUNK block,
        # so no table is kept: building the objective allocates far less than
        # one W-row per candidate would (50,625 x 35 doubles, 14 MB).
        spec = make_spec(k=4, levels=15, n_runs=40, primary="second_order",
                         potential=["cubic_terms", "third_order_terms"])
        cand, evaluator = build_candidates(spec.grid), CriterionEvaluator.from_spec(spec)
        tracemalloc.start()
        try:
            PointObjective(evaluator, cand, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_coordinate_rows_equal_the_monomial_matrix(self):
        spec = make_spec(family="MSE.D", k=3, levels=5, n_runs=20,
                         primary="second_order", potential="cubic_terms")
        objective = CoordObjective(CriterionEvaluator.from_spec(spec), spec.grid,
                                   prior_for_spec(spec, spec.seed))
        settings = random_design(spec.grid, 500, np.random.default_rng(12))
        values = spec.grid.value_columns(settings)
        expected = np.column_stack([np.ones(500),
                                    monomial_matrix(values, spec.primary.exponent_matrix()),
                                    monomial_matrix(values, spec.potential.exponent_matrix())])
        assert np.array_equal(objective._w(settings @ spec.grid.label_strides()), expected)


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


class _Sum:
    """Objective of a design: the sum of table[label] over the runs' labels.

    Its screen is exact and records the moves, as (run, new label) pairs, of
    every window it is asked to screen, in order.
    """

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.windows = []

    def __call__(self, state):
        return float(self.table[state].sum())

    def screen(self, state, runs, options):
        self.windows.append(list(zip(np.broadcast_to(runs, options.shape).tolist(),
                                     options.tolist())))
        return self(state) - self.table[state[runs]] + self.table[options]


def window_runs(objective):
    """The runs each recorded window of a _Sum screened, in order."""
    return [sorted({run for run, _ in window}) for window in objective.windows]


class TestWindow:
    def test_accept_drops_the_tail_and_keeps_the_window_size(self):
        # Ten runs at the best candidate but run 4. Windows double while
        # nothing is accepted; the accept in run 4 drops runs 5 and 6, and the
        # next window, at run 5, keeps the size of four runs. The size carries
        # over into the next pass but never crosses a pass's end, and the
        # search stops after run 3, the last run not yet scanned at the final
        # design.
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Sum([0.0, 1.0, 2.0, 3.0, 4.0])
        out = point_exchange(np.array([0, 0, 0, 0, 3, 0, 0, 0, 0, 0]), cand, objective)
        assert out.accepted == [0.0] and out.passes == 2 and out.converged
        runs = window_runs(objective)
        assert runs == [[0], [1, 2], [3, 4, 5, 6], [5, 6, 7, 8], [9], [0, 1, 2, 3]]
        assert out.screen_calls == len(runs)
        assert out.screened == 4 * sum(map(len, runs))  # dropped tails count too

    def test_coordinate_window_of_two_runs_survives_an_accept(self):
        # Label 3a + b holds levels (a, b); run 2 starts at label 1, every
        # other run at label 0, the best. A run is two groups of two moves. The
        # window of runs 1 and 2 holds the accept, in run 2's second factor,
        # and the next window holds the four groups of runs 3 and 4, not the
        # two of run 3 alone.
        grid = FactorGrid.regular(2, 3)
        objective = _Sum(np.add.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]).ravel())
        start = np.zeros((5, 2), dtype=np.int64)
        start[2, 1] = 1
        out = coordinate_exchange(start, grid, objective)
        assert out.accepted == [0.0] and (out.passes, out.converged) == (2, True)
        assert window_runs(objective) == [[0], [1, 2], [3, 4], [0, 1, 2]]
        assert objective.windows[2] == [(run, label) for run in (3, 4) for label in (3, 6, 1, 2)]

    def test_coordinate_windows_start_at_one_run(self):
        # Label 3a + b holds levels (a, b); every run starts at label 0, so
        # factor 1's moves give labels 3 and 6, and factor 2's labels 1 and 2.
        grid = FactorGrid.regular(2, 3)
        objective = _Sum(np.add.outer([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]).ravel())
        out = coordinate_exchange(np.zeros((3, 2), dtype=np.int64), grid, objective)
        assert out.accepted == [] and out.screen_calls == 2
        assert objective.windows == [[(0, 3), (0, 6), (0, 1), (0, 2)],
                                     [(run, label) for run in (1, 2) for label in (3, 6, 1, 2)]]

    def test_accept_in_the_first_group_ends_after_one_pass(self):
        # Run 0 is the only one off the best candidate: its accept leaves runs
        # 1 to 6 to scan, and once they hold no accept every run has been
        # scanned at the final design, so no second pass begins.
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Sum([0.0, 1.0, 2.0, 3.0, 4.0])
        out = point_exchange(np.array([2, 0, 0, 0, 0, 0, 0]), cand, objective)
        assert out.accepted == [0.0]
        assert (out.passes, out.converged) == (1, True)
        assert window_runs(objective) == [[0], [1], [2, 3], [4, 5, 6]]

    def test_window_holds_at_most_the_move_cap(self, monkeypatch):
        monkeypatch.setattr(search, "WINDOW_MOVES", 8)  # two groups of four moves
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Sum([0.0, 1.0, 2.0, 3.0, 4.0])
        point_exchange(np.zeros(7, dtype=np.int64), cand, objective)
        assert [len(runs) for runs in window_runs(objective)] == [1, 2, 2, 2]


class TestConfirm:
    def test_disagreeing_screen_rescores_the_group(self, monkeypatch):
        # Option 0 screens far below its exact value; once the confirm sees
        # that, every option is scored exactly and the true best (1) wins.
        monkeypatch.setattr(search, "MAX_PASSES", 1)
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Table([3.0, 1.0, 2.0, 4.0, 5.0], [-13.0, 0, 0, 0, 0])
        out = point_exchange(np.array([4]), cand, objective)
        assert list(out.state) == [1]
        assert out.accepted == [1.0]
        assert out.exact == 1 + 4  # the start, then all four options

    def test_screened_choice_is_confirmed_once(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_PASSES", 1)
        cand = build_candidates(FactorGrid.regular(1, 5))
        objective = _Table([3.0, 1.0, 2.0, 4.0, 5.0], [0, 1e-13, 0, 0, 0])
        out = point_exchange(np.array([4]), cand, objective)
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

    def test_converged_design_costs_no_confirm(self):
        # Re-running exchange from its own fixed point: moves that only tie
        # the current value fall outside the screen's band, so only the
        # start is scored exactly.
        spec = make_spec()
        cand, objective = point_setup(spec)
        out = point_exchange(random_start(cand, spec.n_runs, restart_rng(3, 0)), cand,
                             objective)
        again = point_exchange(out.state.copy(), cand, objective)
        assert again.accepted == [] and again.objective == out.objective
        assert again.exact == 1

    def test_bare_callable_scores_every_move(self):
        # Without a screen every move of every scanned group is scored: as
        # many objective calls as the per-move loop makes.
        spec = make_spec()
        cand, objective = point_setup(spec)
        start = random_start(cand, spec.n_runs, restart_rng(10, 0))
        calls = []

        def counted(idx):
            calls.append(None)
            return objective(idx)

        out = point_exchange(start.copy(), cand, counted)
        assert out.screened == 0 and out.exact == len(calls)
        calls.clear()
        ref = per_move_point_exchange(start, len(cand), counted)
        assert_same_outcome(out, ref)
        assert out.exact == len(calls)
        assert (out.exact - 1) % (len(cand) - 1) == 0


# -- identical outcomes to per-move scoring ------------------------------------

KAPPAS = [(1 / 3, 1 / 3, 1 / 3), (0.4, 0.2, 0.4), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
          (0.0, 0.0, 1.0), (0.5, 0.0, 0.5)]


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
    q = len(expand_preset(potential, k)) if potential else 0
    kappa = draw(st.sampled_from(KAPPAS))
    # near-saturated sizes make singular M and pe_df = 0 moves common; a
    # weighted quantile-bearing component needs room for pure error
    low = p + 2 if CriterionConfig(kappa=kappa).needs_pure_error(q) else p + 1
    n_runs = draw(st.one_of(st.integers(low, p + 3), st.integers(p + 4, p + 10)))
    family = draw(st.sampled_from(FAMILIES))
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


@settings(max_examples=40)
@given(exchange_specs(), st.booleans())
def test_point_exchange_matches_per_move_scoring(spec, runs_windows):
    # `runs_windows` lowers WINDOW_MOVES so that every group is too large to
    # share a window of a run per move: point exchange then screens windows
    # of runs (search._run_window), as it does on the case study's 125 labels
    cand, objective = point_setup(spec)
    start = random_start(cand, spec.n_runs, restart_rng(spec.seed, 0))
    with pytest.MonkeyPatch.context() as mp:
        if runs_windows:
            mp.setattr(search, "WINDOW_MOVES", 1)
            assert search._run_window(objective, point_groups(spec)) >= 1
        out = point_exchange(start, cand, objective)
    assert_same_outcome(out, per_move_point_exchange(start, len(cand), objective))


@settings(max_examples=40)
@given(exchange_specs())
def test_coordinate_exchange_matches_per_move_scoring(spec):
    # Coordinate exchange searches labels; the oracle searches (n, k) settings
    # and scores each through its labels.
    objective = CoordObjective(CriterionEvaluator.from_spec(spec), spec.grid,
                               prior_for_spec(spec, spec.seed))
    strides = spec.grid.label_strides()
    start = random_design(spec.grid, spec.n_runs, restart_rng(spec.seed, 0))
    out = coordinate_exchange(start, spec.grid, objective)
    settings, *rest = per_move_coordinate_exchange(start, spec.grid.levels,
                                                   lambda s: objective(s @ strides))
    assert_same_outcome(out, (settings @ strides, *rest))


def exchange_setup(spec, algorithm):
    """(objective, start, groups, settings_of) of point or coordinate exchange on `spec`:
    the start holds labels, the groups are (run, n_values, stride) as exchange takes
    them, and settings_of maps labels to their (n, k) grid-index rows."""
    evaluator = CriterionEvaluator.from_spec(spec)
    prior = prior_for_spec(spec, spec.seed)
    rng = restart_rng(spec.seed, 0)
    cand = build_candidates(spec.grid)
    if algorithm == "point":
        setup = (PointObjective(evaluator, cand, prior), random_start(cand, spec.n_runs, rng),
                 point_groups(spec))
    else:
        setup = (CoordObjective(evaluator, spec.grid, prior), coordinate_start(spec, rng),
                 coordinate_groups(spec))
    return (*setup, lambda state: cand.rows[state])


@settings(max_examples=80)
@given(exchange_specs(), st.sampled_from(["point", "coordinate"]), st.data())
def test_window_screen_equals_the_per_group_screens(spec, algorithm, data):
    # One screen over groups of mixed runs reads each move as the screen of
    # its own group does: the same NaN and +inf entries, and values that
    # agree to rounding.
    objective, state, groups, _ = exchange_setup(spec, algorithm)
    window = data.draw(st.lists(st.sampled_from(groups), min_size=2, max_size=12, unique=True))
    options = [group_options(state, group) for group in window]
    expected = np.concatenate([objective.screen(state, group[0], opts)
                               for group, opts in zip(window, options)])
    at = np.repeat([group[0] for group in window], [len(o) for o in options])
    stacked = objective.screen(state, at, np.concatenate(options))
    assert np.array_equal(np.isnan(stacked), np.isnan(expected))
    assert np.array_equal(stacked == np.inf, expected == np.inf)
    finite = np.isfinite(expected)
    assert np.all(np.abs(stacked[finite] - expected[finite])
                  <= 1e-12 * (1.0 + np.abs(expected[finite])))


def w_rows(evaluator, grid, settings):
    """Rows [1 | X1 | X2] of grid-index rows."""
    values = grid.value_columns(settings)
    return np.column_stack([np.ones(len(settings)), monomial_matrix(values, evaluator.exps1),
                            monomial_matrix(values, evaluator.exps2)])


def fresh_factor_screen(objective, grid, settings, runs, moved):
    """The screen of moving run runs[c] of the design `settings` to grid row moved[c],
    read from a new factor of W, with each moved design's pure-error df counted anew."""
    evaluator = objective.evaluator
    labels = treatment_labels(settings, grid)
    pe_df = []
    for run, label in zip(runs, treatment_labels(moved, grid)):
        relabelled = labels.copy()
        relabelled[run] = label
        pe_df.append(replication(relabelled).pe_df)
    w = w_rows(evaluator, grid, settings)
    factor = placed_factor(
        evaluator, w, objective.prior, evaluator.exact_factor(w[None, :, 1:].copy(),
                                                              objective.prior))
    return screen_rows(evaluator, factor, runs, w_rows(evaluator, grid, moved), np.array(pe_df))


def screen_window(spec, objective, state, groups, settings_of, data):
    """Screen a drawn window of one to four groups, in any order, as exchange does
    and from a fresh factor: (cached, fresh, entries, options), where entries[c] is
    the run move c relabels."""
    window = data.draw(st.lists(st.sampled_from(groups), min_size=1, max_size=4, unique=True))
    options = [group_options(state, group) for group in window]
    entries = np.repeat([group[0] for group in window], [len(o) for o in options])
    options = np.concatenate(options)
    cached = objective.screen(state, window[0][0] if len(window) == 1 else entries, options)
    moved = []
    for entry, option in zip(entries, options):
        after = state.copy()
        after[entry] = option
        moved.append(settings_of(after)[entry])
    fresh = fresh_factor_screen(objective, spec.grid, settings_of(state), entries,
                                np.array(moved))
    return cached, fresh, entries, options


@settings(max_examples=60, deadline=None)
@given(exchange_specs(), st.sampled_from(["point", "coordinate"]), st.booleans(), st.data())
def test_cached_screen_equals_a_fresh_screen(spec, algorithm, table_off, data):
    # Both exchanges read each move from a table of candidate halves kept
    # with the factor. Windows of one or more groups, in any order, and
    # re-reads after exchanges (which rebuild the table) give what a fresh
    # per-call screen gives; so does a SCREEN_CHUNK too small for the table,
    # which turns it off.
    screened = None  # the design of the last screen
    with pytest.MonkeyPatch.context() as mp:
        if table_off:  # before the objective is built, which decides on the table
            mp.setattr(criteria, "SCREEN_CHUNK", 1)
        objective, state, groups, settings_of = exchange_setup(spec, algorithm)
        for _ in range(data.draw(st.integers(1, 4))):
            rebuilt = screened is None or not np.array_equal(screened, state)
            factorisations = objective.factorisations
            cached, fresh, _, _ = screen_window(spec, objective, state, groups, settings_of, data)
            assert objective.factorisations == factorisations + rebuilt
            assert np.array_equal(np.isnan(cached), np.isnan(fresh))
            assert np.array_equal(cached == np.inf, fresh == np.inf)
            finite = np.isfinite(fresh)
            np.testing.assert_allclose(cached[finite], fresh[finite], rtol=1e-14, atol=0)
            half = objective._table
            assert (half is None) == (table_off or objective._factor is None)
            assert half is None or half.size <= criteria.SCREEN_CHUNK
            screened = state.copy()
            # an exchange, or none when the drawn value is the run's own digit
            group = data.draw(st.sampled_from(groups))
            state[group[0]] = relabel(state, group, data.draw(st.integers(0, group[1] - 1)))


# -- the current factor comes from the exact call that confirmed it -------------

@st.composite
def aliased_specs(draw):
    """k = 1 on three levels with potential terms x^2 and x^3 = x: at tau2 = 1e16
    the joint factorisation of S fails and only the M block is factored."""
    return ExperimentSpec(
        grid=FactorGrid.regular(1, 3), n_runs=draw(st.integers(4, 9)),
        primary=expand_preset("main_effects", 1),
        potential=termset_from_exponents([[2], [3]], 1),
        criterion=CriterionConfig(family=draw(st.sampled_from(FAMILIES)),
                                  kappa=draw(st.sampled_from(KAPPAS)),
                                  tau2=draw(st.sampled_from([1.0, 1e16])), mc_samples=8),
        n_starts=1, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(exchange_specs(), aliased_specs()), st.sampled_from(["point", "coordinate"]),
       st.data())
def test_factor_from_the_confirm_screens_like_a_fresh_factor(spec, algorithm, data):
    # The screen of a new current design reads the factor that the exact call
    # scoring it lowest since the last rebuild built, when that call scored
    # this design (an accepted move's confirm), else a factor of W. Either way
    # it screens as a fresh factor of W does: after an accepted move, after
    # rejected moves only (the kept call scored another design), after a jump
    # to a design no exact call scored, and where the joint factorisation
    # fails (no factor: every move is scored exactly).
    objective, state, groups, settings_of = exchange_setup(spec, algorithm)
    objective(state)  # the start, as exchange scores it
    for _ in range(data.draw(st.integers(1, 4))):
        reused, fresh, entries, options = screen_window(spec, objective, state, groups,
                                                        settings_of, data)
        assert np.array_equal(np.isnan(reused), np.isnan(fresh))
        assert np.array_equal(reused == np.inf, fresh == np.inf)
        finite = np.isfinite(fresh)
        assert np.all(np.abs(reused[finite] - fresh[finite])
                      <= 1e-12 * (1.0 + np.abs(fresh[finite])))

        # score some moves exactly, then accept the lowest, reject them all or jump
        scored = data.draw(st.lists(st.integers(0, options.size - 1), max_size=3, unique=True))
        values = []
        for c in scored:
            after = state.copy()
            after[entries[c]] = options[c]
            values.append((objective(after), c))
        action = data.draw(st.sampled_from(["accept", "reject", "jump"]))
        if action == "accept" and values:
            c = min(values)[1]
            state[entries[c]] = options[c]
        elif action == "jump":
            group = data.draw(st.sampled_from(groups))
            state[group[0]] = relabel(state, group, data.draw(st.integers(0, group[1] - 1)))


@settings(max_examples=60, deadline=None)
@given(exchange_specs(), st.sampled_from(["ptex", "coordex"]))
def test_search_factors_only_its_exact_evaluations(spec, algorithm):
    # The screen's factor of each design comes from an exact call that the
    # search counts, a restart's start too: a search factors the exact calls'
    # designs and the final breakdown's, and nothing else. One call factors
    # a stack of designs, the exact calls of a block of restarts.
    designs = []
    original = CriterionEvaluator.exact_factor

    def counted(self, X, *args, **kwargs):
        designs.append(math.prod(X.shape[:-2]))
        return original(self, X, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CriterionEvaluator, "exact_factor", counted)
        result = multi_start(spec.with_overrides(n_starts=3, algorithm=algorithm), workers=1)
    assert sum(designs) == sum(s.exact_evaluations for s in result.stats) + 1


# -- one accept step: the exact call's record and the label tally ------------------

@pytest.mark.parametrize("kappa", [(0.4, 0.2, 0.4), (0.5, 0.0, 0.5)])
def test_trace_family_inverts_each_block_once(kappa, monkeypatch):
    # The exact call inverts L11 and, when LoF is weighted, L22; the refresh
    # assembles S's inverse from them and inverts L22 only if the call did not.
    # One call inverts a stack of matrices, one per restart of a block.
    spec = make_spec(family="MSE.L", kappa=kappa, k=3, n_runs=14, potential="cubic_terms")
    calls = []
    inv = np.linalg.inv

    def counted(a, *args, **kwargs):
        calls.append(math.prod(a.shape[:-2]))
        return inv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "inv", counted)
    result = multi_start(spec.with_overrides(n_starts=3), workers=1)
    exact = sum(s.exact_evaluations for s in result.stats) + 1  # the breakdown's too
    refreshes = sum(s.factorisations for s in result.stats)
    assert sum(calls) == (2 * exact if kappa[1] else exact + 1 + refreshes)


def assert_same_screen_state(stacked, alone):
    """Everything a screen reads of two objectives is bit-equal: the factor's terms,
    maps, limits, theta and per_run, the replication record, and the candidate table."""
    a, b = stacked._factor, alone._factor
    assert (a is None) == (b is None)
    if a is not None:
        for name in ("maps", "limits", "per_run"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.theta == b.theta
        for x, y in zip(a.terms, b.terms):
            assert (x is None and y is None) or np.array_equal(x, y)
    x, y = stacked._replication, alone._replication
    assert (x.distinct is None and y.distinct is None) or np.array_equal(x.distinct, y.distinct)
    assert np.array_equal(x.counts, y.counts) and x.pe_df == y.pe_df
    assert (stacked._table is None) == (alone._table is None)
    assert stacked._table is None or np.array_equal(stacked._table, alone._table)


@pytest.mark.parametrize("table_off", [False, True])
def test_a_refresh_reads_the_record_of_its_own_labels(table_off, monkeypatch):
    # Every exact call keeps its record, by its labels, until the next
    # refresh. The refresh rebuilds from the call on its labels, here neither
    # the last call nor the one of the lowest value, with no exact call of
    # its own, and then holds no record.
    if table_off:
        monkeypatch.setattr(criteria, "SCREEN_CHUNK", 1)
    spec = make_spec()
    cand, objective = point_setup(spec)
    rng = np.random.default_rng(5)
    designs = [rng.integers(0, len(cand), spec.n_runs) for _ in range(3)]
    values = [search._score_all([objective], [design])[0] for design in designs]
    b = int(np.argmax(values[:2]))  # B: the higher of the first two calls
    assert values[b] > min(values)
    calls = []
    exact = objective.evaluator.exact_factor
    monkeypatch.setattr(objective.evaluator, "exact_factor",
                        lambda *args: calls.append(args) or exact(*args))
    search._refresh_all([objective], [designs[b]])
    assert calls == [] and objective._calls == {}
    assert objective._factor is not None and (objective._table is None) == table_off
    alone = objective.sibling()
    search._refresh_all([alone], [designs[b]])
    assert len(calls) == 1
    assert_same_screen_state(objective, alone)


@st.composite
def second_order_specs(draw):
    """Second-order primary models on two or three factors, p = 5 or 9."""
    k = draw(st.integers(2, 3))
    p = len(expand_preset("second_order", k))
    return make_spec(family=draw(st.sampled_from(FAMILIES)), kappa=draw(st.sampled_from(KAPPAS)),
                     k=k, levels=3, n_runs=draw(st.integers(p + 2, p + 12)),
                     primary="second_order", potential="cubic_terms",
                     tau2=draw(st.sampled_from([0.25, 1.0, 16.0])), mc_samples=8,
                     seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=160, deadline=None)
@given(st.one_of(exchange_specs(), aliased_specs(), second_order_specs()), st.booleans(),
       st.booleans(), st.data())
def test_a_stacked_accept_step_is_each_designs_own(spec, table_off, collapse, data):
    # A block of restarts scores its exact calls in one stacked call and
    # refreshes its new designs in another. Each design's exact value and all
    # its screen reads are bit-equal to those of the design scored and
    # refreshed alone: designs on few labels (often rank deficient), potential
    # blocks that fail (aliased_specs at tau2 = 1e16) and, when `collapse`
    # sets one design to label 0, a stack whose factorisation fails and is
    # factored one design at a time.
    fallbacks = []
    factor = criteria.spd_logdet_inverse

    def counted(S):
        L = factor(S)
        fallbacks.append(S.ndim == 3 and L is None)
        return L

    with pytest.MonkeyPatch.context() as mp:
        if table_off:
            mp.setattr(criteria, "SCREEN_CHUNK", 1)
        mp.setattr(criteria, "spd_logdet_inverse", counted)
        objective = search._LabelObjective(CriterionEvaluator.from_spec(spec), spec.grid,
                                           prior_for_spec(spec, spec.seed))
        every = spec.grid.n_candidates  # or few labels: repeats, and rank deficiency
        span = data.draw(st.one_of(st.just(every), st.integers(1, every)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        designs = [rng.integers(0, span, spec.n_runs)
                   for _ in range(data.draw(st.integers(2 if collapse else 1, 6)))]
        if collapse:  # label 0 puts every factor at -1: every column of X is constant
            # +-1, so M is exactly zero and the stack's factorisation fails
            designs[data.draw(st.integers(0, len(designs) - 1))][:] = 0
        block = [objective.sibling() for _ in designs]
        values = search._score_all(block, designs)
        assert any(fallbacks) or not collapse
        search._refresh_all(block, designs)
        for stacked, design, value in zip(block, designs, values):
            alone = objective.sibling()
            assert alone(design) == value
            search._refresh_all([alone], [design])
            assert stacked.factorisations == alone.factorisations == 1
            assert_same_screen_state(stacked, alone)


class _Products(np.ndarray):
    """An array that records the shape of each right operand it multiplies."""

    widths: list = []

    def __matmul__(self, other):
        _Products.widths.append(other.shape)
        return np.asarray(self) @ other


@settings(max_examples=400, deadline=None)
@given(st.one_of(exchange_specs(), aliased_specs(), second_order_specs()), st.booleans(),
       st.booleans(), st.data())
def test_a_stacked_screen_is_each_restarts_own(spec, table_off, collapse, data):
    # A block answers its restarts' screens of a run per move in stacked calls
    # when every label's row is kept; one-run calls, calls without kept rows
    # and restarts without a usable factor screen alone. Each restart receives
    # its own screen's values bit for bit: with the rows kept or not, one-run
    # and per-move calls, designs on few labels (the theta certificate fails on
    # some restarts' moves and passes on others', and moves without pure error
    # screen +inf) and, when `collapse` sets one design to label 0, a restart
    # without a usable factor (all NaN). The per-pivot rule forms the products
    # of each restart's moves that its own screen forms, and no others.
    every = spec.grid.n_candidates
    _Products.widths = []
    evaluator, prior = CriterionEvaluator.from_spec(spec), prior_for_spec(spec, spec.seed)
    with pytest.MonkeyPatch.context() as mp:
        if table_off:
            mp.setattr(criteria, "SCREEN_CHUNK", (every - 1) * evaluator.half_rows(prior))
        objective = search._LabelObjective(evaluator, spec.grid, prior)
        span = data.draw(st.sampled_from([every, every, data.draw(st.integers(1, every))]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        requests = []
        for _ in range(int(rng.integers(2, 9))):
            size = int(rng.integers(1, max(1, (every - 1) // 2) + 1))
            runs = (rng.integers(0, spec.n_runs, size) if data.draw(st.integers(0, 3))
                    else int(rng.integers(spec.n_runs)))  # a run per move, 3 calls in 4
            requests.append((rng.integers(0, span, spec.n_runs), runs,
                             rng.integers(0, every, size)))
        if collapse:  # label 0 puts every factor at -1: M is exactly zero
            requests[data.draw(st.integers(0, len(requests) - 1))][0][:] = 0
        # the per-pivot rule's products: each restart's, of its own width, or none
        mp.setattr(evaluator, "_tri", evaluator._tri.view(_Products))
        block = [objective.sibling() for _ in requests]
        search._refresh_all(block, [request[0] for request in requests])
        stacked = search._screen_all(block, requests)
        formed, _Products.widths = _Products.widths, []
        for request, values in zip(requests, stacked):
            assert objective.sibling().screen(*request).tobytes() == values.tobytes()
        assert sorted(formed) == sorted(_Products.widths)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_stacked_screen_reads_each_restarts_theta(family):
    # Each stacked move is certified against its own restart's theta. On k = 1
    # with potential x^2 and x^3 (= x on the grid) at tau2 = 1e5 the potential
    # pivot is nearly the ridge, and theta follows diag(X2'X2): 0.4 for design
    # a and 0.7 for b. Moving runs 0-3 of b to label 2 keeps the share
    # rho = 0.5 of every pivot, between the two: b's own screen forms the
    # per-pivot products for them, and a's theta would certify them. The
    # stack forms exactly the products of the restarts' own calls, in either
    # order, and gives each its own values.
    spec = ExperimentSpec(
        grid=FactorGrid.regular(1, 3), n_runs=6, primary=expand_preset("main_effects", 1),
        potential=termset_from_exponents([[2], [3]], 1),
        criterion=CriterionConfig(family=family, tau2=1e5, mc_samples=8), n_starts=1, seed=7)
    evaluator, prior = CriterionEvaluator.from_spec(spec), prior_for_spec(spec, spec.seed)
    objective = search._LabelObjective(evaluator, spec.grid, prior)
    a = (np.array([0, 0, 0, 1, 1, 1]), np.array([0, 3]), np.array([2, 2]))
    b = (np.array([0, 0, 0, 0, 2, 2]), np.arange(4), np.full(4, 2))
    alone = [objective.sibling() for _ in (a, b)]
    for own, (labels, _, _) in zip(alone, (a, b)):
        search._refresh_all([own], [labels])
    factor_a, factor_b = (own._factor for own in alone)
    rho = (factor_b.split(factor_b.per_run)[1][-1][b[1]]
           / factor_b.split(alone[1]._table)[1][-1][b[2]])
    assert factor_a.theta < 0.99 * rho.min() and rho.max() < 0.99 * factor_b.theta
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_tri", evaluator._tri.view(_Products))
        for requests in ([a, b], [b, a]):
            block = [objective.sibling() for _ in requests]
            search._refresh_all(block, [request[0] for request in requests])
            _Products.widths = []
            stacked = search._screen_all(block, requests)
            formed, _Products.widths = _Products.widths, []
            for request, values in zip(requests, stacked):
                assert objective.sibling().screen(*request).tobytes() == values.tobytes()
            assert formed and sorted(formed) == sorted(_Products.widths)


@settings(max_examples=300, deadline=None)
@given(st.one_of(exchange_specs(), aliased_specs(), second_order_specs()),
       st.integers(0, 7).map(lambda draw: draw == 0), st.data())
def test_a_window_of_runs_is_each_runs_own_screen(spec, collapse, data):
    # Point exchange asks a window of several runs in one screen when every
    # label's row is kept: every label is screened for each run, in one call
    # with a leading run axis, and the moves are picked. Each run's values are
    # bit for bit those of its own one-run screen, NaN and +inf entries
    # included: on designs on few labels (the theta certificate fails for
    # some runs and passes for others, and moves without pure error screen
    # +inf), near-aliased potential blocks (aliased_specs) and, when
    # `collapse` sets the design to label 0, no usable factor (all NaN).
    evaluator, prior = CriterionEvaluator.from_spec(spec), prior_for_spec(spec, spec.seed)
    objective = search._LabelObjective(evaluator, spec.grid, prior)
    every = spec.grid.n_candidates
    assert objective._rows is not None  # every label's row is kept at these sizes
    # a window holds as many runs as every label's half fits one SCREEN_CHUNK block for
    window = evaluator.block_moves(prior) // every
    span = data.draw(st.sampled_from([every, every, data.draw(st.integers(1, every))]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros(spec.n_runs, dtype=np.int64) if collapse else rng.integers(
        0, span, spec.n_runs)
    size = int(rng.integers(1, min(window, spec.n_runs) + 1))
    runs = rng.choice(spec.n_runs, size, replace=False)
    moves = np.array([group_options(labels, (run, every, 1)) for run in runs])
    values = objective.screen(labels, runs, moves)
    own = np.concatenate([objective.screen(labels, int(run), row) for run, row in zip(runs, moves)])
    assert values.tobytes() == own.tobytes()


# -- one mode per objective, fixed when it is built --------------------------------

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kappa, potential, draws", [
    ((0.4, 0.2, 0.4), "quadratic_terms", 7),  # a prior of 7 draws, not mc_samples = 20
    ((0.5, 0.5, 0.0), "quadratic_terms", 7),  # no bias weight: no draw is read
    ((0.4, 0.2, 0.4), None, 0),  # q = 0
])
def test_half_rows_counts_a_factors_candidate_half(family, kappa, potential, draws):
    # half_rows, read from the spec and the prior alone, is the count a real
    # factor's candidate half splits into: the maps' rows, two running sums
    # and the trace family's four Grams.
    spec = make_spec(family=family, kappa=kappa, potential=potential)
    evaluator = CriterionEvaluator.from_spec(spec)
    prior = sample_prior(spec.q, 1.0, draws, 5) if family == "MSE.D" and spec.q else None
    w = w_rows(evaluator, spec.grid, build_candidates(spec.grid).rows[np.r_[np.arange(9), 0]])
    current = evaluator.factor_current(prior, evaluator.exact_factor(w[None, :, 1:].copy(), prior))
    rows = evaluator.half_rows(prior)
    z, sums, grams = current.split(np.empty((rows, 1)))
    assert (z.shape[0], sums.shape[0], grams.shape[0]) == (
        current.maps.shape[-2], 2, 4 if family == "MSE.L" else 0)
    assert evaluator.candidate_half(current, w).shape == (1, rows, spec.n_runs)


@pytest.mark.parametrize("slack", [0, -1])
@pytest.mark.parametrize("family", FAMILIES)
def test_objective_keeps_the_mode_it_was_built_with(family, slack, monkeypatch):
    # Every label's row is kept exactly when the candidate halves of every
    # label fit one SCREEN_CHUNK block, decided when the objective is built,
    # and kept across a singular start (no factor) and the designs after it.
    spec = make_spec(family=family)
    evaluator, prior = CriterionEvaluator.from_spec(spec), prior_for_spec(spec, spec.seed)
    needed = spec.grid.n_candidates * evaluator.half_rows(prior)
    monkeypatch.setattr(criteria, "SCREEN_CHUNK", needed + slack)
    objective = PointObjective(evaluator, build_candidates(spec.grid), prior)
    rows = objective._rows
    assert (rows is not None) == (slack == 0)
    singular = np.array([0, 1, 2] * 3 + [0])  # x1 = -1 in every run: M is singular
    for labels in (singular, np.r_[np.arange(9), 0], singular):
        objective.screen(labels, 0, np.arange(1, 9))
        assert objective._rows is rows
        assert (objective._factor is None) == (labels is singular)
        assert (objective._table is None) == (rows is None or labels is singular)
        record = objective._replication  # sorted, or dense
        assert (record.distinct is None) == (rows is not None)
        assert np.array_equal(record.counts, np.unique(labels, return_counts=True)[1]
                              if rows is None else np.bincount(labels, minlength=len(rows)))


def test_mse_d_objective_needs_its_prior_when_built():
    spec = make_spec(family="MSE.D")
    with pytest.raises(ValueError, match="PriorSample"):
        PointObjective(CriterionEvaluator.from_spec(spec), build_candidates(spec.grid), None)


def table_state(objective, state, table_off):
    """Refresh `objective` at `state` twice, so that the second refresh reads the
    candidate table kept since the first (unless SCREEN_CHUNK turns it off)."""
    search._refresh_all([objective], [state])
    moved = state.copy()
    moved[0] = (state[0] + 1) % objective.grid.n_candidates
    search._refresh_all([objective], [moved])
    assert not table_off or objective._rows is None
    return moved


@settings(max_examples=80, deadline=None)
@given(st.one_of(exchange_specs(), aliased_specs()), st.sampled_from(["point", "coordinate"]),
       st.booleans(), st.data())
def test_exact_value_is_compound_objective_bit_for_bit(spec, algorithm, table_off, data):
    # The exchange's exact value is compound_objective's log compound of the
    # same runs in the same order, with == : singular M and no pure error under
    # a weighted quantile (+inf) and the M block factored alone (aliased_specs
    # at tau2 = 1e16) included, with every label's row kept or not.
    with pytest.MonkeyPatch.context() as mp:
        if table_off:
            mp.setattr(criteria, "SCREEN_CHUNK", 1)
        objective, state, _, settings_of = exchange_setup(spec, algorithm)
        table_state(objective, state, table_off)
        span = data.draw(st.integers(1, spec.grid.n_candidates))  # few labels: repeats
        for _ in range(3):
            labels = np.array(data.draw(st.lists(st.integers(0, span - 1), min_size=spec.n_runs,
                                                 max_size=spec.n_runs)))
            expected = compound_objective(Design(settings_of(labels)), spec, objective.prior)
            assert objective(labels) == expected.log_compound


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("labels, tau2, kappa, finite", [
    ([1, 1, 1, 1, 1, 1], 1.0, (0.4, 0.2, 0.4), False),  # one setting: M is singular
    ([0, 1, 2], 1.0, (0.4, 0.2, 0.4), False),  # no pure error under quantile weights
    ([0, 1, 2], 1.0, (0.0, 0.0, 1.0), True),  # no pure error, no quantile weight
    ([0, 1, 2, 0, 2, 2], 1.0, (0.4, 0.2, 0.4), True),
    ([0, 1, 2, 0, 2, 2], 1e16, (0.5, 0.0, 0.5), True),  # S fails: M is factored alone
])
def test_exact_value_edge_cases_are_compound_objective(family, labels, tau2, kappa, finite):
    # k = 1 on three levels with potential x^2 and x^3, which is x on the grid.
    spec = ExperimentSpec(
        grid=FactorGrid.regular(1, 3), n_runs=len(labels),
        primary=expand_preset("main_effects", 1), potential=termset_from_exponents([[2], [3]], 1),
        criterion=CriterionConfig(family=family, kappa=kappa, tau2=tau2, mc_samples=4),
        n_starts=1, seed=3)
    cand, objective = point_setup(spec)
    state = np.array(labels)
    value = search._score_all([objective], [state])[0]
    factor, i = objective._calls[state.tobytes()][1]  # the record's factor: a stack of one
    assert (factor.ok[i] and not factor.potential_ok[i]) == (tau2 > 1.0)
    assert value == compound_objective(Design(cand.rows[state]), spec, objective.prior).log_compound
    assert math.isfinite(value) == finite


def captured_pe_df(objective, mp):
    """Record the pe_df of every screen_block call a screen makes, one per block."""
    seen = []
    screen_block = objective.evaluator.screen_block

    def capture(current, run_half, half, pe_df, *args):
        seen.append(pe_df.copy())
        return screen_block(current, run_half, half, pe_df, *args)

    mp.setattr(objective.evaluator, "screen_block", capture)
    return seen


def pe_df_after(labels, run, label):
    moved = labels.copy()
    moved[run] = label
    return replication(moved).pe_df


@settings(max_examples=80, deadline=None)
@given(exchange_specs(), st.booleans(), st.data())
def test_each_moves_pe_df_counts_the_moved_design(spec, table_off, data):
    # Every move's pure-error df, from one count per label (the candidate table
    # kept) or from the sorted tally, is the pe_df of the moved design's own record:
    # moves onto the run's own label, onto labels other runs hold, and off a
    # label only this run holds; one run per call, and several.
    span = data.draw(st.integers(2, spec.grid.n_candidates))
    labels = np.array(data.draw(st.lists(st.integers(0, span - 1), min_size=spec.n_runs,
                                         max_size=spec.n_runs)))
    counts = np.bincount(labels)
    alone = np.flatnonzero(counts[labels] == 1)
    runs = [data.draw(st.integers(0, spec.n_runs - 1))] + list(alone[:1])
    with pytest.MonkeyPatch.context() as mp:
        if table_off:
            mp.setattr(criteria, "SCREEN_CHUNK", 1)
        cand, objective = point_setup(spec)
        table_state(objective, labels, table_off)
        seen = captured_pe_df(objective, mp)
        for run in runs:
            seen.clear()
            objective.screen(labels, run, np.arange(len(cand)))
            every = np.concatenate(seen)  # one run: every label, or the moves' blocks
            assert list(every) == [pe_df_after(labels, run, c) for c in range(len(cand))]
        at = np.repeat(runs, len(cand))
        moves = np.tile(np.arange(len(cand)), len(runs))  # each run's own label among them
        seen.clear()
        objective.screen(labels, at, moves)
        assert list(np.concatenate(seen)) == [pe_df_after(labels, r, c)
                                              for r, c in zip(at, moves)]


@settings(max_examples=60, deadline=None)
@given(exchange_specs(), st.sampled_from(["point", "coordinate"]), st.booleans())
def test_refresh_from_the_exact_record_is_a_fresh_factor(spec, algorithm, table_off):
    # The refresh reads the exact call's record: per_run from the candidate
    # table's columns while it is kept, the sums and diag(X'X) the call formed,
    # and the trace family's inverted blocks. It gives maps, per_run and limits
    # as a fresh factor of W does, to 1e-13 of each array's largest entry, and
    # maps begin with the inverse factor of G = W'W + diag(0, 0, I/tau2).
    with pytest.MonkeyPatch.context() as mp:
        if table_off:
            mp.setattr(criteria, "SCREEN_CHUNK", 1)
        objective, state, _, _ = exchange_setup(spec, algorithm)
        state = table_state(objective, state, table_off)
        current, w = objective._factor, objective._w(state)
        fresh = placed_factor(objective.evaluator, w, objective.prior,
                              exact_factor(objective, state))
    assert (current is None) == (fresh is None)
    if current is None:
        return
    assert (objective._table is None) == table_off
    for name in ("maps", "per_run", "limits"):
        got, want = getattr(current, name), getattr(fresh, name)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    m, ridge = w.shape[1], np.r_[np.zeros(1 + spec.p), np.full(spec.q, 1.0 / spec.criterion.tau2)]
    L_inv = current.maps[:m]
    np.testing.assert_allclose(L_inv @ (w.T @ w + np.diag(ridge)) @ L_inv.T, np.eye(m),
                               rtol=0, atol=1e-8)


@st.composite
def collapsed_designs(draw):
    """A main-effects spec and a design whose factor-0 column takes one level in
    all runs but one or two, so that some moves leave it constant."""
    k = draw(st.integers(1, 2))
    levels = draw(st.integers(2, 5))
    potential = draw(st.sampled_from([None, "quadratic_terms", "cubic_terms"] if k == 1
                                     else [None, "quadratic_terms", "linear_interactions"]))
    kappa = draw(st.sampled_from(KAPPAS))
    low = k + 2 if CriterionConfig(kappa=kappa).needs_pure_error(1) else k + 1
    spec = make_spec(family=draw(st.sampled_from(FAMILIES)), kappa=kappa, k=k, levels=levels,
                     n_runs=draw(st.integers(low, k + 6)), potential=potential,
                     tau2=draw(st.sampled_from([0.25, 1.0, 16.0])), mc_samples=8,
                     seed=draw(st.integers(0, 2**32 - 1)))
    settings = np.array([[draw(st.integers(0, levels - 1)) for _ in range(k)]
                         for _ in range(spec.n_runs)])
    common = draw(st.integers(0, levels - 1))
    odd = draw(st.integers(1, 2))
    settings[odd:, 0] = common
    settings[:odd, 0] = [draw(st.integers(0, levels - 1).filter(lambda v: v != common))
                         for _ in range(odd)]
    return spec, settings


@settings(max_examples=80, deadline=None)
@given(collapsed_designs())
def test_m_singular_move_never_screens_finite(case):
    # A move that leaves M failing the SPD_TOL rule scores +inf exactly; its
    # screen must send it to the exact objective (NaN) or be +inf, never a
    # finite value that could rank it first.
    spec, settings = case
    cand, objective = point_setup(spec)
    idx = treatment_labels(settings, spec.grid) - 1
    ridge = 1.0 / spec.criterion.tau2
    for run in range(spec.n_runs):
        options = np.delete(np.arange(len(cand)), idx[run])
        screened = objective.screen(idx, run, options)
        for option, value in zip(options, screened):
            after = idx.copy()
            after[run] = option
            w = objective._w(after)
            if not information_factor(w[None, :, 1:].copy(), spec.p, ridge).ok[0]:
                assert objective(after) == math.inf
                assert not math.isfinite(value)


# -- every pivot certified from two scalars ----------------------------------------

def certified(current, half, runs):
    """Whether each move passes the scalar test: down[-1] > theta * uu1[-1]."""
    down = current.split(current.per_run[:, runs])[1]
    return down[-1] > current.theta * current.split(half)[1][-1]


def screened_moves(spec, data):
    """A random design of `spec`, its screen factor and moves of random runs to
    random candidates: (objective, state, current, runs, options)."""
    cand, objective = point_setup(spec)
    state = random_start(cand, spec.n_runs, restart_rng(spec.seed, 0))
    current = placed_factor(objective.evaluator, objective._w(state), objective.prior,
                            exact_factor(objective, state))
    runs = np.array(data.draw(st.lists(st.integers(0, spec.n_runs - 1), min_size=1,
                                       max_size=3, unique=True)))
    runs = np.repeat(runs, len(cand))
    options = np.tile(np.arange(len(cand)), runs.size // len(cand))
    keep = options != state[runs]
    return objective, state, current, runs[keep], options[keep]


def dense_pivots(spec, w):
    """Squared pivots of the ridged information matrix S of W-rows `w`, and
    diag(W'W) after the intercept plus the ridge."""
    ridge = np.r_[np.zeros(spec.p), np.full(spec.q, 1.0 / spec.criterion.tau2)]
    X = w[:, 1:]
    S = X.T @ X - np.outer(X.sum(axis=0), X.sum(axis=0)) / len(w) + np.diag(ridge)
    return np.diagonal(np.linalg.cholesky(S)) ** 2, np.einsum("ij,ij->j", X, X) + ridge


@settings(max_examples=60)
@given(exchange_specs(), st.data())
def test_certified_moves_pass_the_pivot_rule(spec, data):
    # The limits' two facts, move by move in dense factors: a move scales each
    # squared pivot of S by its ratio, at least rho = down[-1] / uu1[-1], and
    # raises no entry of diag(W'W) by more than 1. So a limit, (largest entry
    # of its block + 1) / (squared pivot over the margin), certifies: a move
    # whose every ratio clears its limit (every move with rho > theta, the
    # largest limit, among them) keeps every squared pivot PIVOT_MARGIN above
    # the SPD_TOL rule against its diag(W'W) plus the ridge, and passes the
    # exact rule.
    objective, state, current, runs, options = screened_moves(spec, data)
    if current is None:
        return
    p, margin = spec.p, criteria.PIVOT_MARGIN * criteria.SPD_TOL
    pivots, sumsq = dense_pivots(spec, objective._w(state))
    top = np.r_[np.full(p, sumsq[:p].max()), np.full(spec.q, sumsq[p:].max(initial=0.0))]
    np.testing.assert_allclose(current.limits[:, 0], (top + 1.0) / (pivots / margin), rtol=1e-7)
    assert current.limits.shape == (spec.p + spec.q, 1)
    assert np.all(current.limits > margin) and current.theta == current.limits.max() < 1.0
    half = objective.evaluator.candidate_half(current, objective._w(options))
    down = current.split(current.per_run[:, runs])[1][-1]
    rho = down / current.split(half)[1][-1]
    # the screen's own verdict on every ratio (theta = inf forms them all)
    full = dataclasses.replace(current, theta=math.inf)
    clear = objective.evaluator._moved_terms(full, full.per_run[:, runs], half)[0]
    for run, option, rho_c, clear_c in zip(runs, options, rho, clear):
        after = state.copy()
        after[run] = option
        w = objective._w(after)
        assert clear_c or not rho_c > current.theta
        if rho_c > 1e-4:  # else the moved S may be singular to rounding
            moved, moved_sumsq = dense_pivots(spec, w)
            assert np.all(moved >= (1.0 - 1e-6) * rho_c * pivots)
            assert np.all(moved_sumsq <= sumsq + 1.0 + 1e-12)
        if clear_c:
            moved, moved_sumsq = dense_pivots(spec, w)
            scale = margin * moved_sumsq
            assert moved[:p].min() > scale[:p].max()
            assert moved[p:].min(initial=np.inf) > scale[p:].max(initial=0.0)
            factor = information_factor(w[None, :, 1:].copy(), p, 1.0 / spec.criterion.tau2)
            assert factor.ok == factor.potential_ok == [True]


@settings(max_examples=60)
@given(exchange_specs(), st.data())
def test_certified_screen_equals_the_full_rule(spec, data):
    # Screens that skip the ratios give bit for bit the values of the full
    # rule (forced by theta = inf): on moves that all pass the scalar test,
    # and on every move, where one failing move sends the call to the full
    # rule. The limits are read exactly when some move fails the test: with
    # every limit +inf, certified calls are unchanged and the others screen
    # no move (NaN, or +inf where no pure error makes that certain).
    objective, state, current, runs, options = screened_moves(spec, data)
    if current is None:
        return
    evaluator = objective.evaluator
    full = dataclasses.replace(current, theta=math.inf)
    closed = dataclasses.replace(current, limits=np.full_like(current.limits, np.inf))
    rows = objective._w(options)
    pe_df = np.array(data.draw(st.lists(st.integers(0, spec.n_runs - 1), min_size=runs.size,
                                        max_size=runs.size)))
    passed = certified(current, evaluator.candidate_half(current, rows), runs)
    one = runs == runs[0]  # one run for every move: its column broadcasts
    for moves, run in ((passed, runs), (np.ones_like(passed), runs), (one & passed, runs[0])):
        if moves.any():
            args = run if np.ndim(run) == 0 else run[moves], rows[moves], pe_df[moves]
            value = screen_rows(evaluator, current, *args)
            assert np.array_equal(value, screen_rows(evaluator, full, *args), equal_nan=True)
            unread = value if passed[moves].all() else np.where(value == np.inf, np.inf, np.nan)
            assert np.array_equal(screen_rows(evaluator, closed, *args), unread, equal_nan=True)


# -- the folded screen of either family --------------------------------------------

FOLD_KAPPAS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0),
               (0.4, 0.2, 0.4)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["MSE.P", "MSE.D", "MSE.L"]), st.sampled_from(FOLD_KAPPAS),
       st.sampled_from([None, "quadratic_terms", "linear_interactions"]),
       st.sampled_from(["per-move", "one-run", "window"]), st.data())
def test_folded_screen_is_the_exact_objective(family, kappa, potential, call, data):
    # Either family screens a move's compound value as one folded expression
    # whose weights branch on which kappa are positive. Each screened
    # value is factor_objective of the moved design to 1e-11, with potential
    # terms (q > 0) and without (q = 0), in per-move, one-run and window calls;
    # a move without pure error screens +inf exactly when needs_pure_error (a
    # zero weight never reads the +inf quantile at pe_df = 0).
    k = data.draw(st.integers(2, 3))
    p = k + 1
    spec = make_spec(family=family, kappa=kappa, k=k, levels=3, potential=potential,
                     n_runs=data.draw(st.integers(p + 1, p + 8)), mc_samples=8,
                     seed=data.draw(st.integers(0, 2**32 - 1)))
    cand, objective = point_setup(spec)
    every, n = len(cand), spec.n_runs
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, every, n)
    if call == "per-move":
        runs, moves = rng.integers(0, n, 3 * every), rng.integers(0, every, 3 * every)
        pairs = list(zip(runs, moves))
    elif call == "one-run":
        runs, moves = int(rng.integers(n)), np.arange(every)
        pairs = [(runs, c) for c in moves]
    else:  # every other label for each run of a window
        runs = rng.choice(n, int(rng.integers(1, min(n, 4) + 1)), replace=False)
        moves = np.array([group_options(labels, (run, every, 1)) for run in runs])
        pairs = [(r, c) for r, row in zip(runs, moves) for c in row]
    screened = objective.screen(labels, runs, moves)
    exact, pe_df = [], []
    for run, label in pairs:
        moved = labels.copy()
        moved[run] = label
        exact.append(objective.sibling()(moved))
        pe_df.append(pe_df_after(labels, run, label))
    exact, fresh = np.array(exact), np.array(pe_df) == 0
    close = np.isfinite(screened)
    np.testing.assert_allclose(screened[close], exact[close], rtol=1e-11, atol=1e-11)
    assert np.all(exact[screened == math.inf] == math.inf)
    needs = spec.criterion.needs_pure_error(spec.q)
    assert np.array_equal(screened[fresh] == math.inf, np.full(fresh.sum(), needs))
    assert np.all(screened[~fresh] != math.inf)
    log_f = objective.evaluator._log_f  # the quantile term: +inf only where it is certain
    assert np.isfinite(log_f[0]) != needs and np.all(np.isfinite(log_f[1:]))
