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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .criteria import QUIET, CriterionBreakdown, CriterionEvaluator, compound_objective
from .experiment import CANDIDATE_CAP, ExperimentSpec
from .model import (
    Design,
    FactorGrid,
    FieldError,
    check_count,
    label_tally,
    monomial_matrix,
)
from .numeric import PriorSample, sample_prior

REL_TOL = 1e-9
MAX_PASSES = 50


@dataclass(frozen=True)
class CandidateSet:
    """Full factorial over the grid, in treatment-label order."""

    grid: FactorGrid

    def __len__(self) -> int:
        return self.grid.n_candidates

    @cached_property
    def rows(self) -> np.ndarray:
        """(C, k) grid indices; row c carries label c + 1. Built on first read."""
        rows = np.column_stack(np.unravel_index(np.arange(len(self)), self.grid.levels))
        rows.flags.writeable = False
        return rows


def build_candidates(grid: FactorGrid) -> CandidateSet:
    total = grid.n_candidates
    if total > CANDIDATE_CAP:
        raise ValueError(
            f"candidate set would hold {total} points, above the cap of {CANDIDATE_CAP}; "
            "use coordinate exchange for this many level combinations")
    return CandidateSet(grid=grid)


def random_start(candidates: CandidateSet, n: int, rng: Generator) -> np.ndarray:
    """n 0-based treatment labels (candidate indices) drawn uniformly with replacement."""
    return rng.integers(0, len(candidates), size=n)


def random_design(grid: FactorGrid, n: int, rng: Generator) -> np.ndarray:
    """(n, k) grid indices with each coordinate uniform over its levels.

    Equivalent in distribution to uniform sampling from the full factorial,
    without materialising the candidate list.
    """
    return np.column_stack([rng.integers(0, lev, size=n) for lev in grid.levels])


@dataclass
class ExchangeOutcome:
    state: np.ndarray  # the final design's 0-based treatment labels, one per run
    objective: float
    passes: int        # passes begun (see exchange)
    converged: bool
    accepted: list[float]
    screened: int      # moves ranked by a batched screen
    exact: int         # exact objective evaluations, the start's included
    screen_calls: int  # batched screens, one per window of move groups


def _improves(current: float, candidate):
    """Whether `candidate` (a value or an array) beats `current` beyond REL_TOL; NaN never does."""
    if math.isinf(current):
        return candidate < current
    return current - candidate > REL_TOL * abs(current)


# Screened values are trusted to this absolute-relative distance from the
# exact log objective; a larger disagreement re-scores the group exactly.
# Moves near a group's minimum have screened to within 1e-12 of it, and the
# band stays below REL_TOL, so a move that only ties the current value is
# not confirmed.
SCREEN_TOL = 1e-10


# A window of move groups, screened in one call, holds at most this many moves.
WINDOW_MOVES = 128


def _may_improve(cur: float, s_min, e_min=math.inf):
    """The dismiss rule: whether a group whose least screened (exact) value is s_min (e_min)
    may improve on `cur`. No exact value lies below min(e_min, s_min less its SCREEN_TOL
    band). Vectorised; false for a NaN or all-+inf (inf - inf) s_min."""
    return _improves(cur, np.minimum(e_min, s_min - SCREEN_TOL * (1.0 + np.abs(s_min))))


def _unscreened(labels, runs, moves) -> np.ndarray:
    """Screen of a bare objective callable: every move is scored exactly."""
    return np.full(len(moves), np.nan)


def _best_move(objective, labels, run, options, approx, cur):
    """The move the per-move scan would pick: (option or -1, value, exact evaluations).

    `approx` holds the screened values of the options (NaN: score exactly,
    +inf: certainly +inf). Only moves whose screened value could be the
    minimum are re-scored with `objective`; the choice among exact values is
    the scan's: first option, in index order, strictly below the running best.
    """
    old = labels[run]
    exact: dict[int, float] = {}

    def score(k):
        labels[run] = options[k]
        exact[k] = float(objective(labels))

    for k in np.flatnonzero(np.isnan(approx)):
        score(k)
    finite = np.flatnonzero(np.isfinite(approx))
    if finite.size:
        s_min = float(approx[finite].min())
        tol = SCREEN_TOL * (1.0 + abs(s_min))
        e_min = min((v for v in exact.values() if not math.isnan(v)), default=math.inf)
        if _may_improve(cur, s_min, e_min):
            # every move whose exact value could be the minimum screens <= limit
            limit = min(e_min + tol, s_min + 2.0 * tol)
            for k in finite[approx[finite] <= limit]:
                score(k)
                if not abs(exact[k] - approx[k]) <= tol:
                    for j in finite:
                        if j not in exact:
                            score(j)
                    break
    labels[run] = old
    best_k, best_val = -1, cur
    for k in sorted(exact):
        if exact[k] < best_val:
            best_k, best_val = k, exact[k]
    return (-1 if best_k < 0 else int(options[best_k])), best_val, len(exact)


@np.errstate(**QUIET)  # screens of failed moves, and all-+inf groups
def exchange(labels: np.ndarray, groups, objective) -> ExchangeOutcome:
    """Greedy exchange over move groups, shared by point and coordinate exchange.

    The state is `labels`, each run's 0-based treatment label, and
    `objective` scores such a vector. `groups` lists (run, n_values, stride):
    the run's digit labels[run] // stride % n_values may take any value v in
    range(n_values), which relabels the run to labels[run] + (v - digit) *
    stride. Groups are visited in order, pass after pass; in each, the best
    strictly improving value (beyond REL_TOL) is accepted. Converges once
    len(groups) groups in a row hold no accept, counting the group of the
    last accept (its accepted value is its least): every group has then been
    scanned at the current design. Stops there, or when MAX_PASSES passes
    have begun; `passes` counts the passes begun.

    An objective with a ``screen(labels, runs, moves)`` method ranks the
    moves of a window of upcoming groups in one call (`runs` is one run for
    every move, or the run of each move; `moves` holds the new labels); a
    bare callable scores every move itself. One screen serves every group up
    to the next accepted exchange, which drops the rest of the window. The
    window starts at the number of groups of one run, doubles after a window
    without an accept, resets after one, ends at the pass's last group and
    at the last group not yet scanned at the current design, and holds at
    most WINDOW_MOVES moves (but always one group).
    """
    screen = getattr(objective, "screen", _unscreened)
    runs, n_values, strides = (np.array(column) for column in zip(*groups))
    # every pass lays out the same moves: group g's are moves begins[g]:ends[g]
    sizes = n_values - 1
    ends = np.cumsum(sizes)
    begins = ends - sizes
    at, radix, step = (np.repeat(a, sizes) for a in (runs, n_values, strides))  # per move
    offsets = np.arange(ends[-1]) - np.repeat(begins, sizes)  # skips the current value
    max_size = max(1, WINDOW_MOVES // int(sizes.max()))
    first = min(int(np.count_nonzero(runs == runs[0])), max_size)
    cur = float(objective(labels))
    accepted: list[float] = []
    n_screened, n_exact, n_calls = 0, 1, 0
    passes, size, clean = 0, first, 0  # clean: groups in a row without an accept
    while clean < len(groups) and passes < MAX_PASSES:
        passes += 1
        g = 0
        while g < len(groups) and clean < len(groups):
            h = min(g + size, len(groups), g + len(groups) - clean)
            moves = slice(begins[g], ends[h - 1])
            run = runs[g] if h == g + 1 else at[moves]  # one group: one run serves every move
            old = labels[run]
            digit = old // step[moves] % radix[moves]
            options = old + (offsets[moves] + (offsets[moves] >= digit) - digit) * step[moves]
            approx = screen(labels, run, options)
            n_calls += screen is not _unscreened
            n_screened += int(np.count_nonzero(approx == approx))  # all but NaN
            starts = begins[g:h] - begins[g]
            s_min = np.minimum.reduceat(approx, starts)  # NaN if the group holds one
            for k in np.flatnonzero(np.isnan(s_min) | _may_improve(cur, s_min)):
                lo, hi = starts[k], starts[k] + sizes[g + k]
                best, best_val, scored = _best_move(objective, labels, runs[g + k],
                                                    options[lo:hi], approx[lo:hi], cur)
                n_exact += scored
                if best >= 0 and _improves(cur, best_val):
                    labels[runs[g + k]] = best
                    cur = best_val
                    accepted.append(cur)
                    g, size, clean = g + k + 1, first, 1
                    break
            else:
                g, size, clean = h, min(2 * size, max_size), clean + h - g
    return ExchangeOutcome(state=labels, objective=cur, passes=passes,
                           converged=clean == len(groups), accepted=accepted,
                           screened=n_screened, exact=n_exact, screen_calls=n_calls)


def point_exchange(start: np.ndarray, candidates: CandidateSet,
                   objective: Callable[[np.ndarray], float]) -> ExchangeOutcome:
    """Modified-Fedorov exchange over whole rows of the candidate list.

    `start` holds candidate indices, one per run: candidate c carries label
    c. Rows are scanned in order; for each, every candidate is tried and the
    best strictly improving swap is accepted.
    """
    labels = np.array(start, dtype=np.int64)
    return exchange(labels, [(i, len(candidates), 1) for i in range(labels.size)], objective)


def coordinate_exchange(start: np.ndarray, grid: FactorGrid,
                        objective: Callable[[np.ndarray], float]) -> ExchangeOutcome:
    """One-coordinate-at-a-time exchange over the level grid.

    `start` is an (n, k) grid-index matrix, turned once into the runs'
    0-based treatment labels: `objective` scores label vectors, and the
    outcome's state holds labels. For each run and factor the best strictly
    improving level (one digit of the run's label) is accepted, holding
    everything else fixed.
    """
    strides = grid.label_strides()
    labels = np.asarray(start, dtype=np.int64) @ strides
    groups = [(i, grid.levels[j], strides[j]) for i in range(labels.size) for j in range(grid.k)]
    return exchange(labels, groups, objective)


class _LabelObjective:
    """Compound log-objective of designs given as 0-based treatment labels, and its move screen.

    Label t holds level t // strides[j] % levels[j] of factor j, as
    ``np.unravel_index`` reads it (the grid's label strides: factor 1
    slowest). Rows of W = [1 | X1 | X2] come from one table per factor,
    entry (level, term) = value ** exponent (1 for a zero exponent),
    multiplied across factors in factor order: the same products, in the
    same order, as :func:`monomial_matrix`, so the rows equal its output bit
    for bit.

    A move gives one run a new label. The screen reads every move from one
    factor of the current design, keyed on its labels: they fix every row of
    W, so equal labels mean an equal design. The factor is rebuilt whenever
    they change, once per accepted exchange, from the record of the exact
    call on them (see _refresh); no update is carried over, so no rounding
    error accumulates. The constructor fixes one mode for every restart: if
    the candidate halves of every label fit one SCREEN_CHUNK block
    (:meth:`CriterionEvaluator.fits`), every label's W-row is kept, labels
    are tallied as one count per label, and each factor keeps every label's
    :meth:`CriterionEvaluator.candidate_half`: its columns at the design's
    labels give the runs' `per_run`, and a call whose moves all replace one
    run screens every label and picks its moves. Otherwise labels are tallied
    as sorted distinct labels and their counts, `per_run` maps the design's
    own W-rows, and each call builds the halves of its moved rows.
    """

    def __init__(self, evaluator: CriterionEvaluator, grid: FactorGrid,
                 prior: PriorSample | None):
        self.evaluator = evaluator
        self.grid = grid
        self.prior = prior
        self.factorisations = 0  # factors of a current design built for the screen
        exps = np.vstack([np.zeros((1, grid.k), dtype=np.int64), evaluator.exps1,
                          evaluator.exps2.reshape(-1, grid.k)])
        self._tables = [monomial_matrix(grid.factor_values(j)[:, None], exps[:, j:j + 1])
                        for j in range(grid.k)]
        self._key: bytes | None = None  # the labels the factor was built from
        self._factor = None
        self._tally = None  # those labels' counts, dense with _rows, else sorted
        # with _rows: (every label's candidate half, or None without a factor, and
        # the pe_df of moving there a run whose label stays)
        self._table = None
        every = grid.n_candidates  # every label's W-row, kept when their candidate halves fit
        self._rows = self._w(np.arange(every)) if evaluator.fits(every, prior) else None
        # (labels key, W or None, exact factor, tally, pe_df, value) of the last
        # exact call and of the lowest one since the last refresh
        self._last = self._lowest = None

    def _w(self, labels: np.ndarray) -> np.ndarray:
        """Rows of W = [1 | X1 | X2] for treatment labels."""
        digits = np.unravel_index(labels, self.grid.levels)
        w = self._tables[0][digits[0]]
        for table, level in zip(self._tables[1:], digits[1:]):
            w = w * table[level]
        return w

    def __call__(self, labels: np.ndarray) -> float:
        """Exact log objective of the design whose runs carry `labels`."""
        if self._rows is None:  # the refresh maps W's rows
            w = self._w(labels)
            X, tally = w[:, 1:].copy(), label_tally(np.sort(labels))
            pe_df = labels.size - tally[0].size  # runs less distinct treatments
        else:  # it reads them from the table
            w, X = None, self._rows[labels, 1:]
            tally = np.bincount(labels, minlength=self._rows.shape[0])
            pe_df = labels.size - np.count_nonzero(tally)
        factor = self.evaluator.exact_factor(X, self.prior)
        value = self.evaluator.factor_objective(factor, pe_df)
        self._last = labels.tobytes(), w, factor, tally, pe_df, value
        if self._lowest is None or value < self._lowest[-1]:
            self._lowest = self._last
        return value

    def _refresh(self, labels: np.ndarray) -> None:
        """Rebuild factor, tally and table if the labels changed.

        They are read from an exact call on these labels: a restart's start is
        the last call, an accepted move's confirm the lowest since the last
        refresh, and other labels are scored here."""
        key = labels.tobytes()
        if key == self._key:
            return
        kept = [call for call in (self._lowest, self._last) if call and call[0] == key]
        if not kept:
            self(labels)  # sets self._last
        _, w, factor, tally, pe_df, _ = kept[0] if kept else self._last
        self._lowest, self._key = None, key
        self.factorisations += 1
        current = self.evaluator.factor_current(self.prior, factor)
        half = None
        if current is not None:  # every label's candidate half, or the design's rows'
            half = self.evaluator.candidate_half(current, w if self._rows is None else self._rows)
            self.evaluator.place_runs(current, half if self._rows is None else half[:, labels])
        self._factor, self._tally = current, tally
        self._table = None if self._rows is None else (half, pe_df - (tally == 0))

    def screen(self, labels: np.ndarray, runs, moves: np.ndarray) -> np.ndarray:
        """Screened objectives of relabelling run runs[c] (or runs) moves[c], for each c.

        A move's pure-error df is the design's, less one if it brings in a
        label no run holds, plus one if no other run holds the label it
        leaves."""
        self._refresh(labels)
        old = labels[runs]
        if self._table is None:  # a sorted tally; the halves of the moves' W-rows
            distinct, counts = self._tally
            at = np.minimum(np.searchsorted(distinct, moves), distinct.size - 1)
            kept = labels.size - distinct.size - (distinct[at] != moves)
            leaves = counts[np.searchsorted(distinct, old)] == 1
            pe_df = kept + (leaves & (moves != old))
            return self.evaluator.screen_moves(self._factor, runs, self._w(moves), pe_df)
        half, kept = self._table
        leaves = self._tally[old] == 1
        if isinstance(runs, np.ndarray):  # moves of several runs: each reads its label's column
            pe_df = kept[moves] + (leaves & (moves != old))
            return self.evaluator.screen_moves(self._factor, runs, moves, pe_df, half)
        # one run: every label is screened, then the moves are picked
        pe_df = kept + (leaves & (np.arange(kept.size) != old))
        return self.evaluator.screen_moves(self._factor, runs, None, pe_df, half)[moves]


class PointObjective(_LabelObjective):
    """The label objective built from a candidate set (point exchange): candidate c is label c."""

    def __init__(self, evaluator: CriterionEvaluator, candidates: CandidateSet,
                 prior: PriorSample | None):
        super().__init__(evaluator, candidates.grid, prior)


CoordObjective = _LabelObjective  # the label objective under its coordinate-exchange name


@dataclass(frozen=True)
class SearchResult:
    """Best design over all restarts plus the evidence needed to reproduce it."""

    design: Design  # runs in treatment-label order
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
    best_restart: int = 0
    workers: int = 1  # processes the restarts ran in


@dataclass(frozen=True)
class RestartStats:
    """Work counters and wall time of one restart's exchange."""

    passes: int          # passes begun (see exchange)
    screened_moves: int  # every move a screen scored, window tails dropped after an accept too
    screen_calls: int    # batched screens, one per window of move groups
    exact_evaluations: int
    accepted_exchanges: int
    factorisations: int  # current-design factors built for the screen
    seconds: float


def restart_rng(master_seed: int, restart: int) -> Generator:
    seq = SeedSequence(entropy=master_seed, spawn_key=(1, restart))
    return Generator(Philox(seq))


def derive_prior_seed(master_seed: int) -> int:
    seq = SeedSequence(entropy=master_seed, spawn_key=(0,))
    return int(seq.generate_state(1, np.uint64)[0])


def prior_for_spec(spec: ExperimentSpec, master_seed: int) -> PriorSample | None:
    """The shared Monte Carlo prior draw, or None when the family never uses one."""
    if spec.criterion.family != "MSE.D" or spec.q == 0:
        return None
    return sample_prior(spec.q, spec.criterion.tau2, spec.criterion.mc_samples,
                        derive_prior_seed(master_seed))


class _Restarts:
    """Runs restarts of one search by index, building the objective once."""

    def __init__(self, spec: ExperimentSpec, prior: PriorSample | None, algorithm: str,
                 master_seed: int):
        self.spec = spec
        self.algorithm = algorithm
        self.master_seed = master_seed
        if algorithm == "ptex":
            self.candidates = build_candidates(spec.grid)
        self.objective = _LabelObjective(CriterionEvaluator.from_spec(spec), spec.grid, prior)

    def __call__(self, r: int) -> tuple[ExchangeOutcome, RestartStats]:
        grid, n, objective = self.spec.grid, self.spec.n_runs, self.objective
        t0, factorisations = time.perf_counter(), objective.factorisations
        rng = restart_rng(self.master_seed, r)
        if self.algorithm == "ptex":
            out = point_exchange(random_start(self.candidates, n, rng), self.candidates, objective)
        else:
            out = coordinate_exchange(random_design(grid, n, rng), grid, objective)
        stats = RestartStats(passes=out.passes, screened_moves=out.screened,
                             screen_calls=out.screen_calls, exact_evaluations=out.exact,
                             accepted_exchanges=len(out.accepted),
                             factorisations=objective.factorisations - factorisations,
                             seconds=time.perf_counter() - t0)
        return out, stats


_worker_restarts: _Restarts | None = None  # one per worker process, set by _init_worker


def _init_worker(*args) -> None:
    global _worker_restarts
    _worker_restarts = _Restarts(*args)


def _run_in_worker(r: int) -> tuple[ExchangeOutcome, RestartStats]:
    return _worker_restarts(r)


def fresh_master_seed() -> int:
    return int(SeedSequence().entropy)


def multi_start(spec: ExperimentSpec, workers: int | None = None) -> SearchResult:
    """Run n_starts seeded restarts of the configured exchange algorithm.

    Deterministic for a fixed (spec, seed): the per-restart streams do not
    depend on scheduling, and the best design is chosen by objective value
    with ties broken by restart index.
    """
    if workers is not None:
        try:
            workers = check_count("workers", workers)
        except FieldError as err:
            raise ValueError(f"workers {err}, got {workers!r}") from None
    t0 = time.perf_counter()
    master_seed = spec.seed if spec.seed is not None else fresh_master_seed()
    prior = prior_for_spec(spec, master_seed)
    algorithm = spec.default_algorithm()

    n_workers = workers if workers is not None else (os.cpu_count() or 1)
    n_workers = max(1, min(n_workers, spec.n_starts))
    setup = (spec, prior, algorithm, master_seed)
    if n_workers == 1:
        outcomes = list(map(_Restarts(*setup), range(spec.n_starts)))
    else:
        from concurrent.futures import ProcessPoolExecutor  # spares 1-worker runs its import

        # one restart per task, results in index order
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker,
                                 initargs=setup) as pool:
            outcomes = list(pool.map(_run_in_worker, range(spec.n_starts)))

    best = min((out.objective, r) for r, (out, _) in enumerate(outcomes))[1]
    path = tuple(math.exp(out.objective) for out, _ in outcomes)
    labels = np.sort(outcomes[best][0].state)
    design = Design(np.column_stack(np.unravel_index(labels, spec.grid.levels)))

    return SearchResult(
        design=design,
        breakdown=compound_objective(design, spec, prior),
        compound_value=min(path),
        path=path,
        seed=master_seed,
        prior_seed=prior.seed if prior is not None else None,
        algorithm=algorithm,
        n_starts=spec.n_starts,
        wall_time=time.perf_counter() - t0,
        non_converged=tuple(r for r, (out, _) in enumerate(outcomes) if not out.converged),
        stats=tuple(stats for _, stats in outcomes),
        best_restart=best,
        workers=n_workers,
    )
