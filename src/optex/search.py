"""Candidate sets, point/coordinate exchange, and seeded multi-start search.

Restarts are the unit of parallelism. Restart r draws its starting design
from a Philox stream keyed by (master seed, r), so the search result is
identical for any worker count; the Monte Carlo prior sample is drawn once
per invocation and shared read-only by every restart.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .criteria import CriterionBreakdown, CriterionEvaluator
from .experiment import ExperimentSpec
from .model import (
    Design,
    FactorGrid,
    model_matrices,
    monomial_matrix,
    pe_df_with_each,
    treatment_counts,
    treatment_labels,
)
from .numeric import PriorSample, sample_prior

CANDIDATE_CAP = 1_000_000
REL_TOL = 1e-9
MAX_PASSES = 50


@dataclass(frozen=True)
class CandidateSet:
    """Full factorial over the grid, in treatment-label order."""

    grid: FactorGrid
    rows: np.ndarray  # (C, k) grid indices; row c carries label c + 1

    def __len__(self) -> int:
        return self.rows.shape[0]


def build_candidates(grid: FactorGrid, cap: int = CANDIDATE_CAP) -> CandidateSet:
    total = grid.n_candidates
    if total > cap:
        raise ValueError(
            f"candidate set would hold {total} points, above the cap of {cap}; "
            "use coordinate exchange for this many level combinations")
    axes = [np.arange(lev, dtype=np.int64) for lev in grid.levels]
    mesh = np.meshgrid(*axes, indexing="ij")
    rows = np.column_stack([m.reshape(-1) for m in mesh])
    rows.flags.writeable = False
    return CandidateSet(grid=grid, rows=rows)


def random_start(candidates: CandidateSet, n: int, rng: np.random.Generator) -> np.ndarray:
    """n candidate indices drawn uniformly with replacement."""
    return rng.integers(0, len(candidates), size=n)


def random_design(grid: FactorGrid, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, k) grid indices with each coordinate uniform over its levels.

    Equivalent in distribution to uniform sampling from the full factorial,
    without materialising the candidate list.
    """
    cols = [rng.integers(0, lev, size=n) for lev in grid.levels]
    return np.column_stack(cols).astype(np.int64)


@dataclass
class ExchangeOutcome:
    state: np.ndarray
    objective: float
    passes: int
    converged: bool
    accepted: list[float]
    screened: int  # moves ranked by a batched screen
    exact: int     # exact objective evaluations, the start's included


def _improves(current: float, candidate: float, rel_tol: float) -> bool:
    if not candidate < current:
        return False
    if math.isinf(current):
        return True
    return (current - candidate) > rel_tol * abs(current)


# Screened values are trusted to this absolute-relative distance from the
# exact log objective; a larger disagreement re-scores the group exactly.
SCREEN_TOL = 1e-9


def _unscreened(state, pos, options) -> np.ndarray:
    """Screen of a bare objective callable: every move is scored exactly."""
    return np.full(len(options), np.nan)


def _best_move(objective, screen, state, pos, options, cur, rel_tol):
    """The move the per-move scan would pick: (option or -1, value, screened, exact).

    `screen` ranks all options at once (NaN: score exactly, +inf: certainly
    +inf). Only moves whose screened value could be the minimum are re-scored
    with `objective`; the choice among exact values is the scan's: first
    option, in index order, strictly below the running best.
    """
    approx = screen(state, pos, options)
    old = state[pos]
    exact: dict[int, float] = {}

    def score(k):
        state[pos] = options[k]
        exact[k] = float(objective(state))

    for k in np.flatnonzero(np.isnan(approx)):
        score(k)
    finite = np.flatnonzero(np.isfinite(approx))
    if finite.size:
        s_min = float(approx[finite].min())
        tol = SCREEN_TOL * (1.0 + abs(s_min))
        e_min = min((v for v in exact.values() if not math.isnan(v)), default=math.inf)
        # No exact value lies below min(e_min, s_min - tol); when even that
        # cannot improve, no move is accepted and nothing needs confirming.
        if _improves(cur, min(e_min, s_min - tol), rel_tol):
            # every move whose exact value could be the minimum screens <= limit
            limit = min(e_min + tol, s_min + 2.0 * tol)
            for k in finite[approx[finite] <= limit]:
                score(k)
                if not abs(exact[k] - approx[k]) <= tol:
                    for j in finite:
                        if j not in exact:
                            score(j)
                    break
    state[pos] = old
    best_k, best_val = -1, cur
    for k in sorted(exact):
        if exact[k] < best_val:
            best_k, best_val = k, exact[k]
    n_screened = len(options) - int(np.isnan(approx).sum())
    return (-1 if best_k < 0 else int(options[best_k])), best_val, n_screened, len(exact)


def exchange(state: np.ndarray, groups, objective, *, rel_tol: float = REL_TOL,
             max_passes: int = MAX_PASSES) -> ExchangeOutcome:
    """Greedy exchange over move groups, shared by point and coordinate exchange.

    `groups` lists (pos, n_values): entry `state[pos]` may take any value in
    range(n_values). Groups are visited in order; in each, the best strictly
    improving value (beyond rel_tol) is accepted. Stops at the first pass
    with no accepted exchange, or after max_passes. An objective with a
    ``screen(state, pos, options)`` method ranks each group's moves in one
    batch; a bare callable scores every move itself.
    """
    screen = getattr(objective, "screen", _unscreened)
    cur = float(objective(state))
    accepted: list[float] = []
    n_screened, n_exact = 0, 1
    converged = False
    passes = 0
    while passes < max_passes:
        passes += 1
        changed = False
        for pos, n_values in groups:
            options = np.delete(np.arange(n_values), state[pos])
            best, best_val, screened, scored = _best_move(
                objective, screen, state, pos, options, cur, rel_tol)
            n_screened += screened
            n_exact += scored
            if best >= 0 and _improves(cur, best_val, rel_tol):
                state[pos] = best
                cur = best_val
                accepted.append(cur)
                changed = True
        if not changed:
            converged = True
            break
    return ExchangeOutcome(state=state, objective=cur, passes=passes, converged=converged,
                           accepted=accepted, screened=n_screened, exact=n_exact)


def point_exchange(start: np.ndarray, candidates: CandidateSet,
                   objective: Callable[[np.ndarray], float], *,
                   rel_tol: float = REL_TOL,
                   max_passes: int = MAX_PASSES) -> ExchangeOutcome:
    """Modified-Fedorov exchange over whole rows of the candidate list.

    `start` holds candidate indices, one per run. Rows are scanned in order;
    for each, every candidate is tried and the best strictly improving swap
    is accepted.
    """
    idx = np.array(start, dtype=np.int64)
    groups = [(i, len(candidates)) for i in range(idx.size)]
    return exchange(idx, groups, objective, rel_tol=rel_tol, max_passes=max_passes)


def coordinate_exchange(start: np.ndarray, grid: FactorGrid,
                        objective: Callable[[np.ndarray], float], *,
                        rel_tol: float = REL_TOL,
                        max_passes: int = MAX_PASSES) -> ExchangeOutcome:
    """One-coordinate-at-a-time exchange over the level grid.

    `start` is an (n, k) grid-index matrix. For each run and factor the
    best strictly improving level is accepted, holding everything else
    fixed.
    """
    state = np.array(start, dtype=np.int64)
    n, k = state.shape
    groups = [((i, j), grid.levels[j]) for i in range(n) for j in range(k)]
    return exchange(state, groups, objective, rel_tol=rel_tol, max_passes=max_passes)


def _screen_replacements(evaluator, prior, w, labels, i, move_w, move_labels):
    """Screened objectives of replacing run i by each move row.

    The Gram matrix is rebuilt from the runs that stay, so no rank-one
    update error carries over between groups. pe_df of each move follows from
    the distinct treatment labels of those runs.
    """
    stay = np.arange(labels.size) != i
    others = w[stay]
    return evaluator.screen_moves(others.T @ others, move_w,
                                  pe_df_with_each(labels[stay], move_labels), prior)


class PointObjective:
    """Compound log-objective over candidate-index vectors (point exchange)."""

    def __init__(self, evaluator: CriterionEvaluator, candidates: CandidateSet,
                 prior: PriorSample | None):
        values = candidates.grid.value_columns(candidates.rows)
        self.cand_x1 = monomial_matrix(values, evaluator.exps1)
        self.cand_x2 = monomial_matrix(values, evaluator.exps2)
        self.cand_w = np.column_stack([np.ones(len(candidates)), self.cand_x1,
                                       self.cand_x2])  # rows of W = [1 | X1 | X2]
        self.evaluator = evaluator
        self.prior = prior

    def __call__(self, idx: np.ndarray) -> float:
        # candidate indices stand in for the treatment labels (label = index + 1)
        _, pe_df, _ = treatment_counts(idx, self.evaluator.p)
        return self.evaluator.log_objective(
            self.cand_x1[idx], self.cand_x2[idx], pe_df, self.prior)

    def screen(self, idx: np.ndarray, i: int, options: np.ndarray) -> np.ndarray:
        """Screened objectives of setting run i to each candidate in `options`."""
        return _screen_replacements(self.evaluator, self.prior, self.cand_w[idx], idx, i,
                                    self.cand_w[options], options)


class CoordObjective:
    """Compound log-objective over (n, k) grid-index matrices (coordinate exchange)."""

    def __init__(self, evaluator: CriterionEvaluator, grid: FactorGrid,
                 prior: PriorSample | None):
        self.evaluator = evaluator
        self.grid = grid
        self.prior = prior
        self._exps = np.vstack([evaluator.exps1, evaluator.exps2.reshape(-1, grid.k)])

    def __call__(self, settings: np.ndarray) -> float:
        values = self.grid.value_columns(settings)
        X1 = monomial_matrix(values, self.evaluator.exps1)
        X2 = monomial_matrix(values, self.evaluator.exps2)
        _, pe_df, _ = treatment_counts(treatment_labels(settings, self.grid), self.evaluator.p)
        return self.evaluator.log_objective(X1, X2, pe_df, self.prior)

    def _w(self, settings: np.ndarray) -> np.ndarray:
        """Rows of W = [1 | X1 | X2] for grid-index rows."""
        terms = monomial_matrix(self.grid.value_columns(settings), self._exps)
        return np.column_stack([np.ones(settings.shape[0]), terms])

    def screen(self, settings: np.ndarray, pos: tuple[int, int],
               options: np.ndarray) -> np.ndarray:
        """Screened objectives of setting factor j of run i to each level in `options`."""
        i, j = pos
        rows = np.vstack([settings, np.repeat(settings[i:i + 1], options.size, axis=0)])
        n = settings.shape[0]
        rows[n:, j] = options
        w, labels = self._w(rows), treatment_labels(rows, self.grid)
        return _screen_replacements(self.evaluator, self.prior, w[:n], labels[:n], i,
                                    w[n:], labels[n:])


@dataclass(frozen=True)
class SearchResult:
    """Best design over all restarts plus the evidence needed to reproduce it."""

    design: Design
    labels: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    breakdown: CriterionBreakdown
    compound_value: float
    path: tuple[float, ...]
    seed: int
    prior_seed: int | None
    algorithm: str
    n_starts: int
    wall_time: float
    non_converged: tuple[int, ...]
    stats: tuple["RestartStats", ...] = ()


@dataclass(frozen=True)
class RestartStats:
    """Work counters of one restart's exchange."""

    passes: int
    screened_moves: int
    exact_evaluations: int
    accepted_exchanges: int


@dataclass
class _RestartOutcome:
    index: int
    settings: np.ndarray
    log_objective: float
    converged: bool
    stats: RestartStats


def restart_rng(master_seed: int, restart: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(1, restart))
    return np.random.Generator(np.random.Philox(seq))


def derive_prior_seed(master_seed: int) -> int:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(0,))
    return int(seq.generate_state(1, np.uint64)[0])


def prior_for_spec(spec: ExperimentSpec, master_seed: int) -> PriorSample | None:
    """The shared Monte Carlo prior draw, or None when the family never uses one."""
    if spec.criterion.family != "MSE.D" or spec.q == 0:
        return None
    return sample_prior(spec.q, spec.criterion.tau2, spec.criterion.mc_samples,
                        derive_prior_seed(master_seed))


def _run_restart_block(args) -> list[_RestartOutcome]:
    spec, prior, algorithm, indices, master_seed = args
    evaluator = CriterionEvaluator.from_spec(spec)
    if algorithm == "ptex":
        candidates = build_candidates(spec.grid)
        objective = PointObjective(evaluator, candidates, prior)
    else:
        objective = CoordObjective(evaluator, spec.grid, prior)
    outcomes = []
    for r in indices:
        rng = restart_rng(master_seed, r)
        if algorithm == "ptex":
            start = random_start(candidates, spec.n_runs, rng)
            out = point_exchange(start, candidates, objective)
            settings = candidates.rows[out.state]
        else:
            start = random_design(spec.grid, spec.n_runs, rng)
            out = coordinate_exchange(start, spec.grid, objective)
            settings = out.state
        stats = RestartStats(passes=out.passes, screened_moves=out.screened,
                             exact_evaluations=out.exact,
                             accepted_exchanges=len(out.accepted))
        outcomes.append(_RestartOutcome(index=r, settings=settings,
                                        log_objective=out.objective,
                                        converged=out.converged, stats=stats))
    return outcomes


def _split_blocks(n_items: int, n_blocks: int) -> list[list[int]]:
    blocks: list[list[int]] = [[] for _ in range(n_blocks)]
    size = math.ceil(n_items / n_blocks)
    for start in range(0, n_items, size):
        blocks[start // size] = list(range(start, min(start + size, n_items)))
    return [b for b in blocks if b]


def fresh_master_seed() -> int:
    return int(np.random.SeedSequence().entropy)


def multi_start(spec: ExperimentSpec, workers: int | None = None) -> SearchResult:
    """Run n_starts seeded restarts of the configured exchange algorithm.

    Deterministic for a fixed (spec, seed): the per-restart streams do not
    depend on scheduling, and the best design is chosen by objective value
    with ties broken by restart index.
    """
    t0 = time.perf_counter()
    master_seed = spec.seed if spec.seed is not None else fresh_master_seed()
    prior = prior_for_spec(spec, master_seed)
    algorithm = spec.default_algorithm()

    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = max(1, min(n_workers, spec.n_starts))
    blocks = _split_blocks(spec.n_starts, n_workers)

    if n_workers == 1 or len(blocks) == 1:
        outcomes = _run_restart_block((spec, prior, algorithm, list(range(spec.n_starts)),
                                       master_seed))
    else:
        payloads = [(spec, prior, algorithm, block, master_seed) for block in blocks]
        outcomes = []
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for block_result in pool.map(_run_restart_block, payloads):
                outcomes.extend(block_result)
        outcomes.sort(key=lambda o: o.index)

    best = min(outcomes, key=lambda o: (o.log_objective, o.index))
    path = tuple(math.exp(o.log_objective) if o.log_objective != math.inf else math.inf
                 for o in outcomes)

    labels_raw = treatment_labels(best.settings, spec.grid)
    order = np.lexsort((np.arange(best.settings.shape[0]), labels_raw))
    design = Design(best.settings[order])
    labels = labels_raw[order]
    X1, X2 = model_matrices(design, spec.primary, spec.potential, spec.grid)
    evaluator = CriterionEvaluator.from_spec(spec)
    breakdown = evaluator.breakdown(design, prior=prior, weighted_only=False)

    return SearchResult(
        design=design,
        labels=labels,
        X1=X1,
        X2=X2,
        breakdown=breakdown,
        compound_value=min(path),
        path=path,
        seed=master_seed,
        prior_seed=prior.seed if prior is not None else None,
        algorithm=algorithm,
        n_starts=spec.n_starts,
        wall_time=time.perf_counter() - t0,
        non_converged=tuple(o.index for o in outcomes if not o.converged),
        stats=tuple(o.stats for o in outcomes),
    )
