"""Candidate sets, point/coordinate exchange, and seeded multi-start search.

Restarts are the unit of parallelism. Restart r draws its starting design
from a Philox stream keyed by (master seed, r), so the search result is
identical for any worker count; the Monte Carlo prior sample is drawn once
per invocation and shared read-only by every restart.

A worker runs blocks of consecutive restart indices (:func:`_blocks`) in
lockstep (:func:`_run_block`): the exchange is a generator of requests,
and a block answers its restarts' pending exact calls, screens (of a run
per move, with kept rows) and rebuilds in stacked calls; a point-exchange
window of runs is one call already (:func:`_run_window`). Each restart's
moves, values and counters do not depend on the block size. RESTART_BLOCK
bounds a block: with the k3 case-study spec (MSE.P, 36 runs, 125 labels)
on one CPU, an exact call plus a rebuild cost, per design and against one
at a time, 1.1x less at 2 designs, 1.5-1.6x less at 4, 2-2.2x less at 8 and
no less at 16 (paired timings on random designs); a stacked screen there
serves 3.34 restarts at 4 and 5.16 at 8 by coordinate exchange (12 searches).
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .criteria import (
    QUIET,
    CriterionBreakdown,
    CriterionEvaluator,
    CurrentDesign,
    ExactFactor,
    _Terms,
    compound_objective,
)
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
# Restarts a worker runs in lockstep, their exact calls and refreshes stacked
# (see the module docstring).
RESTART_BLOCK = 8


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


def _best_move(labels, run, options, approx, cur):
    """The move the per-move scan would pick: (option or -1, value, exact evaluations).

    A generator, as :func:`_exchange`: it yields `labels` with run `run`
    relabelled for each exact call and receives the value. `approx` holds
    the screened values of the options (NaN: score exactly, +inf: certainly
    +inf). Only moves whose screened value could be the minimum are scored
    exactly; the choice among exact values is the scan's: first option, in
    index order, strictly below the running best.
    """
    old = labels[run]
    exact: dict[int, float] = {}
    for k in np.flatnonzero(np.isnan(approx)):
        labels[run] = options[k]
        exact[k] = yield labels
    finite = np.flatnonzero(np.isfinite(approx))
    if finite.size:
        s_min = float(approx[finite].min())
        tol = SCREEN_TOL * (1.0 + abs(s_min))
        e_min = min((v for v in exact.values() if not math.isnan(v)), default=math.inf)
        if _may_improve(cur, s_min, e_min):
            # every move whose exact value could be the minimum screens <= limit
            limit = min(e_min + tol, s_min + 2.0 * tol)
            for k in finite[approx[finite] <= limit]:
                labels[run] = options[k]
                exact[k] = yield labels
                if not abs(exact[k] - approx[k]) <= tol:
                    for j in finite:
                        if j not in exact:
                            labels[run] = options[j]
                            exact[j] = yield labels
                    break
    labels[run] = old
    best_k, best_val = -1, cur
    for k in sorted(exact):
        if exact[k] < best_val:
            best_k, best_val = k, exact[k]
    return (-1 if best_k < 0 else int(options[best_k])), best_val, len(exact)


def _exchange(labels: np.ndarray, groups, window: int = 0):
    """Greedy exchange over move groups, shared by point and coordinate exchange.

    A generator of requests, answered by :func:`exchange` for one restart
    and by :func:`_run_block` for a block of them. It yields `labels`
    for an exact call and receives the log objective of the design whose
    runs carry them; it yields a screen (labels, runs, moves) and receives
    the moves' screened values (NaN: score exactly). It returns the
    ExchangeOutcome.

    The state is `labels`, each run's 0-based treatment label. `groups`
    lists (run, n_values, stride): the run's digit labels[run] // stride %
    n_values may take any value v in range(n_values), which relabels the run
    to labels[run] + (v - digit) * stride. Groups are visited in order, pass
    after pass; in each, the best strictly improving value (beyond REL_TOL)
    is accepted. Converges once len(groups) groups in a row hold no accept,
    counting the group of the last accept (its accepted value is its least):
    every group has then been scanned at the current design. Stops there, or
    when MAX_PASSES passes have begun; `passes` counts the passes begun.

    A screen ranks the moves of a window of upcoming groups in one request
    (`runs` is one run for every move, or the run of each move; `moves`
    holds the new labels). One screen serves every group up to the next
    accepted exchange, which drops the rest of the window. The window starts
    at the number of groups of one run, doubles after a window without an
    accept, resets after one, ends at the pass's last group and at the last
    group not yet scanned at the current design, and holds at most
    WINDOW_MOVES moves (but always one group); with a `window`
    (:func:`_run_window`), at most that many groups, several asked as a
    window of runs: `runs` holds its runs and `moves` a row per run.
    """
    runs, n_values, strides = (np.array(column) for column in zip(*groups))
    # every pass lays out the same moves: group g's are moves begins[g]:ends[g]
    sizes = n_values - 1
    ends = np.cumsum(sizes)
    begins = ends - sizes
    at, radix, step = (np.repeat(a, sizes) for a in (runs, n_values, strides))  # per move
    offsets = np.arange(ends[-1]) - np.repeat(begins, sizes)  # skips the current value
    max_size = window or max(1, WINDOW_MOVES // int(sizes.max()))
    first = min(int(np.count_nonzero(runs == runs[0])), max_size)
    cur = yield labels
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
            approx = yield ((labels, runs[g:h], options.reshape(h - g, -1))
                            if window and h > g + 1 else (labels, run, options))
            n_calls += 1
            n_screened += int(np.count_nonzero(approx == approx))  # all but NaN
            starts = begins[g:h] - begins[g]
            s_min = np.minimum.reduceat(approx, starts)  # NaN if the group holds one
            for k in np.flatnonzero(np.isnan(s_min) | _may_improve(cur, s_min)):
                lo, hi = starts[k], starts[k] + sizes[g + k]
                best, best_val, scored = yield from _best_move(labels, runs[g + k],
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


@np.errstate(**QUIET)  # screens of failed moves, and all-+inf groups
def exchange(labels: np.ndarray, groups, objective) -> ExchangeOutcome:
    """:func:`_exchange` from `labels` over `groups`, one restart, on `objective`.

    `objective` scores a label vector. With a ``screen(labels, runs, moves)``
    method it answers the screens; a bare callable's screens are all NaN, so
    it scores every move itself, and its outcome counts no screen calls.
    """
    screen = getattr(objective, "screen", None)
    steps = _exchange(labels, groups, _run_window(objective, groups))
    request = next(steps)
    try:
        while True:
            if type(request) is not tuple:
                request = steps.send(float(objective(request)))
            elif screen is None:
                request = steps.send(np.full(len(request[2]), np.nan))
            else:
                request = steps.send(screen(*request))
    except StopIteration as stop:
        out = stop.value
    if screen is None:
        out.screen_calls = 0
    return out


def _run_window(objective, groups) -> int:
    """The most groups of a window of runs, or 0. Windows of runs serve point exchange
    (each group may relabel its run to any label) when `objective` keeps every label's
    row and no two groups fit WINDOW_MOVES moves: smaller groups share windows of a run
    per move, which a block stacks across restarts. Their cap is the runs whose every
    label fits one SCREEN_CHUNK block (:meth:`CriterionEvaluator.fits`)."""
    rows = getattr(objective, "_rows", None)
    if rows is None or 2 * (len(rows) - 1) <= WINDOW_MOVES or any(
            n_values != len(rows) for _, n_values, _ in groups):
        return 0
    return next(r for r in itertools.count(1)
                if not objective.evaluator.fits((r + 1) * len(rows), objective.prior))


def _point_moves(start: np.ndarray, candidates: CandidateSet):
    """Point exchange's labels and move groups from a start of candidate indices."""
    labels = np.array(start, dtype=np.int64)
    return labels, [(i, len(candidates), 1) for i in range(labels.size)]


def _coordinate_moves(start: np.ndarray, grid: FactorGrid):
    """Coordinate exchange's labels and move groups from an (n, k) grid-index start."""
    strides = grid.label_strides()
    labels = np.asarray(start, dtype=np.int64) @ strides
    return labels, [(i, grid.levels[j], strides[j]) for i in range(labels.size)
                    for j in range(grid.k)]


def point_exchange(start: np.ndarray, candidates: CandidateSet,
                   objective: Callable[[np.ndarray], float]) -> ExchangeOutcome:
    """Modified-Fedorov exchange over whole rows of the candidate list.

    `start` holds candidate indices, one per run: candidate c carries label
    c. Rows are scanned in order; for each, every candidate is tried and the
    best strictly improving swap is accepted.
    """
    return exchange(*_point_moves(start, candidates), objective)


def coordinate_exchange(start: np.ndarray, grid: FactorGrid,
                        objective: Callable[[np.ndarray], float]) -> ExchangeOutcome:
    """One-coordinate-at-a-time exchange over the level grid.

    `start` is an (n, k) grid-index matrix, turned once into the runs'
    0-based treatment labels: `objective` scores label vectors, and the
    outcome's state holds labels. For each run and factor the best strictly
    improving level (one digit of the run's label) is accepted, holding
    everything else fixed.
    """
    return exchange(*_coordinate_moves(start, grid), objective)


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
    call on them (see _refresh_all); no update is carried over, so no
    rounding error accumulates. The constructor fixes one mode for every
    restart: if the candidate halves of every label fit one SCREEN_CHUNK
    block (:meth:`CriterionEvaluator.fits`), every label's W-row is kept,
    labels are tallied as one count per label, and each factor keeps every
    label's :meth:`CriterionEvaluator.candidate_half`: its columns at the
    design's labels give the runs' `per_run`, and a call of one run, or of
    a window of runs, screens every label for each and picks its moves. Otherwise
    labels are tallied as sorted distinct labels and their counts, `per_run`
    maps the design's own W-rows, and each call builds the halves of its
    moved rows.

    An objective follows one restart at a time. The restarts of a block
    each have their own (:meth:`sibling`), sharing the per-factor tables
    and the kept W-rows, and :func:`_score_all`, :func:`_refresh_all` and
    :func:`_screen_all` serve several in one stacked call.
    """

    def __init__(self, evaluator: CriterionEvaluator, grid: FactorGrid,
                 prior: PriorSample | None):
        self.evaluator = evaluator
        self.grid = grid
        self.prior = prior
        exps = np.vstack([np.zeros((1, grid.k), dtype=np.int64), evaluator.exps1,
                          evaluator.exps2.reshape(-1, grid.k)])
        self._tables = [monomial_matrix(grid.factor_values(j)[:, None], exps[:, j:j + 1])
                        for j in range(grid.k)]
        every = grid.n_candidates  # every label's W-row, kept when their candidate halves fit
        self._rows = self._w(np.arange(every)) if evaluator.fits(every, prior) else None
        self._clear()

    def _clear(self) -> None:
        self.factorisations = 0  # factors of a current design built for the screen
        self._key: bytes | None = None  # the labels the factor was built from
        self._factor = None  # None: moves are scored exactly
        self._tally = None  # those labels' counts, dense with _rows, else sorted
        # with _rows: (every label's candidate half, or None without a factor, and
        # the pe_df of moving there a run whose label stays)
        self._table = None
        # (labels key, W or None, (stacked exact factor, index), tally, pe_df, value)
        # of the last exact call and of the lowest one since the last refresh
        self._last = self._lowest = None

    def sibling(self) -> "_LabelObjective":
        """An objective for another restart: its own kept state, this one's tables and rows."""
        other = copy.copy(self)
        other._clear()
        return other

    def _w(self, labels: np.ndarray) -> np.ndarray:
        """Rows of W = [1 | X1 | X2] for treatment labels (of any shape)."""
        digits = np.unravel_index(labels, self.grid.levels)
        w = self._tables[0][digits[0]]
        for table, level in zip(self._tables[1:], digits[1:]):
            w = w * table[level]
        return w

    def _x(self, labels: np.ndarray):
        """(W or None, X = [X1 | X2]) of a design's labels, or of a stack's."""
        if self._rows is None:  # the refresh maps W's rows
            w = self._w(labels)
            return w, w[..., 1:].copy()
        return None, self._rows[labels, 1:]  # it reads them from the table

    def _count(self, labels: np.ndarray):
        """(tally, pe_df) of a design: one count per label with _rows, else its sorted
        distinct labels and their counts; runs less distinct labels."""
        if self._rows is None:
            tally = label_tally(np.sort(labels))
            return tally, labels.size - tally[0].size
        tally = np.bincount(labels, minlength=self._rows.shape[0])
        return tally, labels.size - np.count_nonzero(tally)

    def __call__(self, labels: np.ndarray) -> float:
        """Exact log objective of the design whose runs carry `labels`."""
        (w, X), (tally, pe_df) = self._x(labels), self._count(labels)
        factor = self.evaluator.exact_factor(X, self.prior)
        value = self.evaluator.factor_objective(factor, pe_df)
        self._keep((labels.tobytes(), w, (factor, None), tally, pe_df, value))
        return value

    def _keep(self, call) -> None:
        self._last = call
        if self._lowest is None or call[-1] < self._lowest[-1]:
            self._lowest = call

    def _refresh(self, labels: np.ndarray) -> None:
        """Rebuild factor, tally and table if the labels changed."""
        if labels.tobytes() != self._key:
            _refresh_all([self], [labels])

    def screen(self, labels: np.ndarray, runs, moves: np.ndarray) -> np.ndarray:
        """Screened objectives of relabelling run runs[c] (or runs) moves[c], for each c,
        or, `moves` one row per run of `runs`, run runs[r] moves[r, c], in row order.

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
        if moves.ndim == 1 and isinstance(runs, np.ndarray):  # a run per move: its label's column
            pe_df = kept[moves] + ((self._tally[old] == 1) & (moves != old))
            return self.evaluator.screen_moves(self._factor, runs, moves, pe_df, half)
        # one run, or a row of moves per run: every label screened for each, moves picked
        old = old[..., None]
        pe_df = kept + ((self._tally[old] == 1) & (np.arange(kept.size) != old))
        values = self.evaluator.screen_moves(self._factor, runs, None, pe_df, half)
        return values[moves] if values.ndim == 1 else values[
            np.arange(runs.size)[:, None], moves].ravel()


def _score_all(objectives: list[_LabelObjective], designs: list[np.ndarray]) -> list[float]:
    """Exact log objectives of designs[i] on objectives[i], objectives of one search,
    in one stacked call (one design: its objective's own call); each objective
    keeps the record of its design's call."""
    if len(designs) == 1:
        return [objectives[0](designs[0])]
    first = objectives[0]
    w, X = first._x(np.array(designs))
    tallies, pe_df = zip(*map(first._count, designs))
    factor = first.evaluator.exact_factor(X, first.prior)
    values = first.evaluator.factor_objective(factor, np.array(pe_df)).tolist()
    for i, (objective, design) in enumerate(zip(objectives, designs)):
        objective._keep((design.tobytes(), None if w is None else w[i], (factor, i),
                         tallies[i], pe_df[i], values[i]))
    return values


def _refresh_all(objectives: list[_LabelObjective], designs: list[np.ndarray]) -> None:
    """Rebuild the factor, tally and table of each objective whose labels changed
    to designs[i], objectives of one search, in stacked calls (one design scored
    alone: unstacked calls)."""
    records = []  # (objective, labels, the exact call on them) of each whose labels changed
    for objective, labels in zip(objectives, designs):
        key, lowest = labels.tobytes(), objective._lowest
        if key == objective._key:
            continue
        # a start's call is the last, an accepted move's confirm the lowest since the refresh
        call = lowest if lowest and lowest[0] == key else objective._last
        if not (call and call[0] == key):  # other labels are scored here
            objective(labels)
            call = objective._last
        objective._lowest, objective._key = None, key
        objective.factorisations += 1
        records.append((objective, labels, call))
    first = objectives[0]
    evaluator, every = first.evaluator, first._rows
    usable = []  # (objective, labels, W, exact record) of the factors that screen
    for objective, labels, (_, w, (factor, i), tally, pe_df, _) in records:
        objective._factor, objective._tally = None, tally
        objective._table = None if every is None else (None, pe_df - (tally == 0))
        if (factor.L is not None and factor.potential_ok if i is None
                else factor.ok[i] and factor.potential_ok[i]):
            usable.append((objective, labels, w, (factor, i)))
    if not usable:
        return
    one = len(usable) == 1 and usable[0][3][1] is None  # one design's unstacked factor
    factor = usable[0][3][0] if one else ExactFactor.gather([u[3] for u in usable])
    current = evaluator.factor_current(first.prior, factor)
    if current is None:  # one design whose moves are scored exactly
        return
    if every is None:  # the halves of the designs' own rows
        evaluator.place_runs(current, evaluator.candidate_half(
            current, usable[0][2] if one else np.array([u[2] for u in usable])))
    else:  # every label's half, the runs' columns picked, gathered as (design, run, entry)
        table = evaluator.candidate_half(current, every)
        at = np.array([u[1] for u in usable])
        evaluator.place_runs(current, table[:, at[0]] if one else table.transpose(0, 2, 1)[
            np.arange(len(usable))[:, None], at].transpose(0, 2, 1))
    for i, (theta, (objective, *_)) in enumerate(zip(np.atleast_1d(current.theta).tolist(),
                                                     usable)):
        if theta < 1.0:  # else its moves are scored exactly
            objective._factor = current if one else CurrentDesign(
                current.n, current.maps[i], current.limits[i], theta,
                _Terms._make(None if t is None else t[i:i + 1] for t in current.terms),
                current.half_rows, current.per_run[i])
            if every is not None:
                objective._table = table if one else table[i], objective._table[1]


def _screen_all(objectives: list[_LabelObjective], requests: list) -> list[np.ndarray]:
    """Screened values of requests[i], a screen (labels, runs, moves), on objectives[i],
    restarts of one block refreshed at those labels (:func:`_refresh_all`). With kept
    rows, calls of a run per move whose halves fit one SCREEN_CHUNK block screen
    together (:meth:`CriterionEvaluator.screen_block`), gathered in the layout a call
    alone reads, the others alone: each receives its own call's values bit for bit."""
    answers, stack, size = [None] * len(requests), [], 0
    for j, (objective, (_, runs, moves)) in enumerate(zip(objectives, requests)):
        if (objective._factor is not None and objective._rows is not None and type(runs) is
                np.ndarray and moves.ndim == 1 and moves.size > 1 and objective.evaluator.fits(
                    size + moves.size, objective.prior)):
            stack.append(j)
            size += moves.size
        else:
            answers[j] = objective.screen(*requests[j])
    if len(stack) < 2:
        for j in stack:
            answers[j] = objectives[j].screen(*requests[j])
        return answers
    factors = [objectives[j]._factor for j in stack]
    counts = [requests[j][2].size for j in stack]
    parts = [(slice(end - count, end), factor.limits)
             for factor, count, end in zip(factors, counts, itertools.accumulate(counts))]
    at, f0 = np.arange(len(stack)).repeat(counts), factors[0]  # each move's restart
    current = CurrentDesign(f0.n, f0.maps, None, np.array([f.theta for f in factors])[at],
                            _Terms._make(None if t[0] is None else np.concatenate(t)[at]
                                         for t in zip(*(f.terms for f in factors))), f0.half_rows)
    # each call's own columns, taken as (move, entry) rows as a call alone takes them
    run_half = np.concatenate([f.per_run.T[requests[j][1]] for f, j in zip(factors, stack)]).T
    half = np.concatenate([objectives[j]._table[0].T[requests[j][2]] for j in stack]).T
    # the pe_df of each move, as screen forms it
    moves = np.concatenate([requests[j][2] for j in stack])
    old = np.concatenate([requests[j][0][requests[j][1]] for j in stack])
    kept, tally = (np.array([objectives[j]._table[1] for j in stack]),
                   np.array([objectives[j]._tally for j in stack]))
    pe_df = kept[at, moves] + ((tally[at, old] == 1) & (moves != old))
    values = objectives[0].evaluator.screen_block(current, run_half, half, pe_df, parts)
    for j, (cols, _) in zip(stack, parts):
        answers[j] = values[cols]
    return answers


def _send(steps, requests, outcomes, ids, answers) -> list[int]:
    """Send restart i of `ids` its answer, into requests[i] or outcomes[i]; those not ended."""
    live = []
    for i, answer in zip(ids, answers):
        try:
            requests[i] = steps[i].send(answer)
        except StopIteration as stop:
            outcomes[i] = stop.value
        else:
            live.append(i)
    return live


@np.errstate(**QUIET)  # screens of failed moves, and all-+inf groups
def _run_block(objectives: list[_LabelObjective], starts: list[np.ndarray],
               groups) -> list[ExchangeOutcome]:
    """:func:`_exchange` from each start over `groups`, restart i on objectives[i],
    the restarts of a block in lockstep.

    Each round refreshes, in one stacked call, the restarts whose next
    screen is on labels their objective has not factored (a start or an
    accepted exchange). It answers screens in sub-rounds until each restart
    asks for an exact call or ends: one that cannot stack (of one run or a
    window of runs, or without kept rows) at once, the others of a sub-round together
    (:func:`_screen_all`); then those exact calls in one stacked call. Every
    restart receives the answers :func:`exchange` would give it alone, so its
    outcome does not depend on the block; a block of one runs :func:`exchange`.
    """
    if len(starts) == 1:
        return [exchange(starts[0], groups, objectives[0])]
    window = _run_window(objectives[0], groups)
    steps = [_exchange(labels, groups, window) for labels in starts]
    requests = [next(step) for step in steps]
    outcomes: list[ExchangeOutcome | None] = [None] * len(steps)
    live, kept = list(range(len(steps))), objectives[0]._rows is not None
    while live:
        screening = [i for i in live if type(requests[i]) is tuple]
        if screening:  # _refresh_all passes over the labels already factored
            _refresh_all([objectives[i] for i in screening], [requests[i][0] for i in screening])
        while screening:
            stack = []
            for i in screening:
                request, screen = requests[i], objectives[i].screen
                try:
                    while type(request) is tuple and not (kept and request[2].ndim == 1
                                                          and type(request[1]) is np.ndarray):
                        request = steps[i].send(screen(*request))
                except StopIteration as stop:
                    outcomes[i] = stop.value
                    continue
                requests[i] = request
                if type(request) is tuple:
                    stack.append(i)
            screening = stack and [i for i in _send(steps, requests, outcomes, stack, _screen_all(
                [objectives[i] for i in stack], [requests[i] for i in stack]))
                if type(requests[i]) is tuple]
        waiting = [i for i in live if outcomes[i] is None]
        live = waiting and _send(steps, requests, outcomes, waiting, _score_all(
            [objectives[i] for i in waiting], [requests[i] for i in waiting]))
    return outcomes


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
    """Runs blocks of restarts of one search by index, building the objective once."""

    def __init__(self, spec: ExperimentSpec, prior: PriorSample | None, algorithm: str,
                 master_seed: int):
        self.spec = spec
        self.algorithm = algorithm
        self.master_seed = master_seed
        if algorithm == "ptex":
            self.candidates = build_candidates(spec.grid)
        # one per restart of the largest block yet
        self.objectives = [_LabelObjective(CriterionEvaluator.from_spec(spec), spec.grid, prior)]

    def __call__(self, block: range) -> list[tuple[ExchangeOutcome, RestartStats]]:
        grid, n, objectives = self.spec.grid, self.spec.n_runs, self.objectives
        objectives += [objectives[0].sibling() for _ in range(len(block) - len(objectives))]
        objectives = objectives[:len(block)]
        t0, factorisations = time.perf_counter(), [o.factorisations for o in objectives]
        starts = []
        for r in block:
            rng = restart_rng(self.master_seed, r)
            starts.append(_point_moves(random_start(self.candidates, n, rng), self.candidates)
                          if self.algorithm == "ptex"
                          else _coordinate_moves(random_design(grid, n, rng), grid))
        outcomes = _run_block(objectives, [labels for labels, _ in starts], starts[0][1])
        seconds = (time.perf_counter() - t0) / len(block)  # the block's time, shared
        return [(out, RestartStats(passes=out.passes, screened_moves=out.screened,
                                   screen_calls=out.screen_calls, exact_evaluations=out.exact,
                                   accepted_exchanges=len(out.accepted),
                                   factorisations=objective.factorisations - before,
                                   seconds=seconds))
                for out, objective, before in zip(outcomes, objectives, factorisations)]


_worker_restarts: _Restarts | None = None  # one per worker process, set by _init_worker


def _init_worker(*args) -> None:
    global _worker_restarts
    _worker_restarts = _Restarts(*args)


def _run_in_worker(block: range) -> list[tuple[ExchangeOutcome, RestartStats]]:
    return _worker_restarts(block)


def _blocks(n_starts: int, workers: int) -> list[range]:
    """Consecutive restart indices in blocks of at most RESTART_BLOCK, whose sizes
    differ by at most one, a multiple of `workers` many (less any empty ones)."""
    count = workers * -(-n_starts // (workers * RESTART_BLOCK))
    edges = [n_starts * b // count for b in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]


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
    blocks = _blocks(spec.n_starts, n_workers)
    if n_workers == 1:
        done = list(map(_Restarts(*setup), blocks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # spares 1-worker runs its import

        # one block per task, results in index order
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_worker,
                                 initargs=setup) as pool:
            done = list(pool.map(_run_in_worker, blocks))
    outcomes = [outcome for block in done for outcome in block]

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
