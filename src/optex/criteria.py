"""Design selection criteria and their weighted compound objectives.

Two compound families are supported, both products of component criteria
raised to non-negative weights (kappa) that sum to one:

* determinant family (``MSE.D`` / ``MSE.P``): DP, LoF-DP and an MSE(D)
  component whose expected log-determinant is either Monte Carlo averaged
  over prior draws of the potential coefficients (MSE.D) or evaluated at the
  one-standard-deviation point prior (MSE.P);
* trace family (``MSE.L``): LP, LoF-LP and the analytic MSE(L) trace.

Determinant-family component values are reported on the per-parameter scale
conventional for D-efficiencies, with the inference quantile counting the
intercept among the estimated parameters:

    DP      = F_{p+1, d; 1-alpha} * |M^-1|^(1/p)
    LoF-DP  = F_{q, d; 1-alpha_L} * |R + I_q/tau2|^(-1/q)
    MSE(D)  = exp{ (log|M^-1| + E[log(1 + b'Cb)]) / p }

so efficiency ratios of these values are per-parameter (D-efficiency-style)
percentages. Trace-family values are plain weighted traces.

Every component is read from the ridged information matrix

    S = [[M, Z], [Z', X2'(I - J/n)X2 + I_q/tau2]],

which is the Gram matrix of W = [1 | X1 | X2] plus I/tau2 on the potential
block, with the intercept swept out. Its factor's blocks give the terms the
component formulas take: log|M| from diag L11, log|R + I/tau2| from diag
L22, the bias forms b'Cb with C = Z'M^-1Z = L21 L21', the alias matrix
A1 = M^-1 Z = L11^-T L21', and the trace family's weighted diagonals from the
inverted triangles L11 and L22. :meth:`CriterionEvaluator._component_logs`
alone turns the terms of an exact call into component values.

SPD_TOL is applied per block. A pivot of the M block at or below SPD_TOL
times the largest diagonal entry of X1'X1 makes every component +inf (the
uncentred sums of squares: M's own diagonal would pass a constant column on
its rounding residue); a pivot of the potential block, against the largest
diagonal entry of R + I/tau2, makes only the LoF component +inf. Designs
without pure-error degrees of freedom are +inf on the quantile-bearing
components. None of these are errors, so exchange searches can score
arbitrary candidate designs. Everything is combined in the log domain.

:meth:`CriterionEvaluator.exact_factor` factors the design's own S, the one
definition of an objective value, and keeps what it formed (ExactFactor).
The accept step has one form, a stack of designs with a leading axis (one
design is a stack of one): the exact call, its record and the screen's
factor built from it, each design bit for bit its own. The exchange search
ranks moves with :meth:`CriterionEvaluator.screen_block`, one call per block
of moves (``search._screen_all`` cuts them), which reads the current
design's factor from that record, its only source
(:meth:`CriterionEvaluator.factor_current`, redone from the exact confirm of
every accepted exchange), and one folded value (F[pe_df] plus one array, in
either family) of every one-run replacement from a rank-two update of it: a
candidate half per W-row moved in (:meth:`CriterionEvaluator.candidate_half`)
and a run half per move, each with two running sums. Both exchanges move a
run to a new treatment label; their objective, when built, keeps the
candidate half of every label if all fit in SCREEN_CHUNK entries (fixed by
the spec and prior: :meth:`CriterionEvaluator.block_moves`), else builds those of
each block's moves, and places the runs from those halves or from the
design's own W-rows (:meth:`CriterionEvaluator.place_runs`) at each refresh.
Screens run under the exchange's ``np.errstate``.

A screened move must keep every squared pivot of S PIVOT_MARGIN inside the
SPD_TOL rule, whose scale the screen takes from diag(W'W) plus the ridge: an
upper bound of diag(S), so the screen is never laxer than the exact rule.
A move scales squared pivot j by d_j / d_(j-1) (see
:meth:`CriterionEvaluator._moved_terms`) and raises no entry of diag(W'W)
by more than 1, as W-rows lie in [-1, 1]^m; so one limit per pivot of the
current design (:class:`CurrentDesign`, all below 1 or no screen) is the
ratio a move must exceed. Every ratio is at least rho = (1 - sum y^2) /
(1 + sum u^2), so a call forms the ratios only if some move's rho is not
above theta, the largest limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import (
    Design,
    FieldError,
    TermSet,
    check_count,
    check_number,
    model_matrices,
    replication,
    set_checked,
    treatment_labels,
)
from .numeric import PriorSample, f_quantile_table, spd_logdet_inverse

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import ExperimentSpec

FAMILIES = ("MSE.D", "MSE.P", "MSE.L")

# A block of the information matrix fails when a squared pivot is at or
# below this share of its largest diagonal entry.
SPD_TOL = 1e-10
# A screened move whose pivot lies within this factor of the SPD_TOL
# singularity rule is scored exactly instead.
PIVOT_MARGIN = 1e4
# Entries of candidate halves (CriterionEvaluator.half_rows per move) screened
# per block, which keeps MSE.D's (draws, moves) arrays in cache; the exchange
# objective keeps every treatment label's half only if they fit in one block.
SCREEN_CHUNK = 1 << 15
QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}

DET_COMPONENT_NAMES = ("DP", "LoF-DP", "MSE(D)")
TRACE_COMPONENT_NAMES = ("LP", "LoF-LP", "MSE(L)")


@dataclass(frozen=True)
class CriterionConfig:
    """Compound-criterion choice: family, weights, and the shared tunables.

    A failed check raises FieldError naming the attribute (``kappa[i]`` for
    one weight); numbers are stored as floats and mc_samples as an int.
    """

    family: str = "MSE.D"
    kappa: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    tau2: float = 1.0
    alpha: float = 0.05
    alpha_lof: float = 0.05
    mc_samples: int = 50

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise FieldError("family",
                             f"criterion family must be one of {FAMILIES}, got {self.family!r}")
        try:
            kappa = tuple(self.kappa)
        except TypeError:  # not iterable
            kappa = ()
        if isinstance(self.kappa, str) or len(kappa) != 3:
            raise FieldError("kappa", "kappa must be three non-negative weights")
        set_checked(self, kappa=tuple(check_number(f"kappa[{i}]", v) for i, v in enumerate(kappa)),
                    tau2=check_number("tau2", self.tau2), alpha=check_number("alpha", self.alpha),
                    alpha_lof=check_number("alpha_lof", self.alpha_lof),
                    mc_samples=check_count("mc_samples", self.mc_samples))
        if any(k < 0 for k in self.kappa):
            raise FieldError("kappa", "kappa must be three non-negative weights")
        if abs(sum(self.kappa) - 1.0) > 1e-12:
            raise FieldError("kappa", "weights must sum to 1")
        # the ridge 1/tau2 and the quantile levels 1 - alpha must be representable
        if not (self.tau2 > 0 and 1.0 / self.tau2 < math.inf):
            raise FieldError("tau2", "tau2 must be positive, with a finite 1/tau2")
        for name in ("alpha", "alpha_lof"):
            if not 0.0 < 1.0 - getattr(self, name) < 1.0:
                raise FieldError(name, f"{name} must lie strictly inside (0, 1), "
                                       f"and 1 - {name} must round below 1")

    @property
    def is_trace_family(self) -> bool:
        return self.family == "MSE.L"

    def component_names(self) -> tuple[str, str, str]:
        return TRACE_COMPONENT_NAMES if self.is_trace_family else DET_COMPONENT_NAMES

    def needs_pure_error(self, q: int) -> bool:
        """Whether designs without pure error score +inf, as a positively weighted
        quantile-bearing component makes them: inference, or LoF with q > 0."""
        return self.kappa[0] > 0 or (self.kappa[1] > 0 and q > 0)


@dataclass(frozen=True)
class CriterionBreakdown:
    """Per-component values of a design plus the log-scale compound objective.

    ``phi_base`` is the un-inflated determinant/trace value (no F-quantile);
    ``log_compound`` sums kappa_i * log(phi_i) over positive weights only.
    Components not evaluated (zero weight, fast path) are NaN.
    """

    phi_primary: float
    phi_lof: float
    phi_mse: float
    phi_base: float
    pe_df: int
    lof_df: int
    log_compound: float

    @property
    def compound_value(self) -> float:
        return math.exp(self.log_compound)


class ExactFactor(NamedTuple):
    """The exact factorisations of a stack of designs (one design is a stack of
    one), kept for the screen: what :func:`information_factor` forms from their
    n runs, the terms read and the trace family's inverted L11 and L22 and alias
    matrix A1 (each None when not formed).

    Every field but n carries the stack's leading axis: L holds the identity
    for a design whose M block fails, `ok` marks the designs whose M block
    passes and `potential_ok` those whose potential block passes too.
    :meth:`gather` stacks designs of such stacks.
    """

    L: np.ndarray
    ok: list[bool]
    potential_ok: list[bool]
    n: int
    sums: np.ndarray
    gram: np.ndarray
    pivots: np.ndarray  # L's squared diagonal
    terms: _Terms | None = None
    inverses: tuple | None = None

    @staticmethod
    def gather(records: list[tuple["ExactFactor", int]]) -> "ExactFactor":
        """The stacked factor of design i of each (stack, i); a stack's own designs, in
        order, are that stack."""
        first = records[0][0]
        if all(f is first for f, _ in records) and [i for _, i in records] == list(
                range(len(first.ok))):
            return first

        def pick(get):  # each design's entry of one field, copied into one
            return None if get(first) is None else np.array([get(f)[i] for f, i in records])
        L, sums, gram, pivots = (pick(lambda f: getattr(f, name))
                                 for name in ("L", "sums", "gram", "pivots"))
        return ExactFactor(L, [f.ok[i] for f, i in records],
                           [f.potential_ok[i] for f, i in records], first.n, sums, gram, pivots,
                           _Terms._make(pick(lambda f: f.terms[j]) for j in range(3)),
                           first.inverses and tuple(pick(lambda f: f.inverses[j])
                                                    for j in range(3)))


def information_factor(X: np.ndarray, p: int, ridge: float) -> ExactFactor:
    """One Cholesky factor of the ridged information matrix S of each design of a
    stack, X = [X1 | X2] with a leading axis (one design: a stack of one).

    X is contiguous, X1's p columns first. Returns an ExactFactor without
    terms: L, ok, potential_ok, the column sums and diag(X'X) that S is
    formed from, and the squared pivots. ok is False for a design whose M
    block fails the SPD_TOL rule, against the uncentred sums of squares of
    X1 (its L and pivots are then the identity's), and potential_ok also for
    one whose potential block fails it. The stack is factored in one call,
    with the same operations on each design; if that fails, each design is
    factored as a stack of one, and a stack of one whose joint factorisation
    fails factors its M block alone, with L's potential block the identity,
    so DP and MSE stay readable.
    """
    (B, n, k), s = X.shape, X.sum(axis=1)
    G = X.transpose(0, 2, 1) @ X  # transposed views: each design's X'X
    gram = G.diagonal(0, 1, 2)
    S = G - s[:, :, None] * s[:, None, :] / n  # the factorisation reads its lower triangle
    S.reshape(B, k * k)[:, p * (k + 1)::k + 1] += ridge  # the potential blocks' diagonals
    L, joint = spd_logdet_inverse(S), True
    if L is None and B > 1:  # some design fails: each is factored alone
        items = [information_factor(x[None], p, ridge) for x in X]
        L, pivots = (np.concatenate([getattr(f, name) for f in items]) for name in ("L", "pivots"))
        return ExactFactor(L, [f.ok[0] for f in items], [f.potential_ok[0] for f in items], n,
                           s, gram, pivots)
    if L is None:  # a stack of one: its M block alone
        L, joint = np.eye(k)[None], False
        L11 = spd_logdet_inverse(S[:, :p, :p])
        if L11 is None:
            return ExactFactor(L, [False], [False], n, s, gram, np.ones((1, k)))
        L[:, :p, :p] = L11
        L[:, p:, :p] = (np.linalg.inv(L11) @ S[:, :p, p:]).swapaxes(1, 2)
    # A block fails when its least squared pivot is not above SPD_TOL times its
    # largest scale: for M, X1'X1's diagonal; for the potential block (passed
    # when empty), L22's squared row norms, the diagonal of R + I/tau2.
    pivots = L.diagonal(0, 1, 2) ** 2
    least, most = np.minimum.reduce, np.maximum.reduce  # over each design's entries
    ok = (least(pivots[:, :p], 1) > SPD_TOL * most(gram[:, :p], 1)).tolist()
    L22 = L[:, p:, p:]
    r_scale = most(np.einsum("cij,cij->ci", L22, L22), 1, initial=0.0)
    potential_ok = [good and joint and bool(passes) for good, passes in zip(
        ok, least(pivots[:, p:], 1, initial=np.inf) > SPD_TOL * r_scale)]
    if not all(ok):  # keeps terms finite
        failed = [i for i, good in enumerate(ok) if not good]
        L[failed], pivots[failed] = np.eye(k), 1.0
    return ExactFactor(L, ok, potential_ok, n, s, gram, pivots)


def _alias(L11_inv: np.ndarray, L21: np.ndarray) -> np.ndarray:
    """A1 = M^-1 Z = L11^-T L21' for one factor or a stack."""
    return np.einsum("...kj,...rk->...jr", L11_inv, L21)


def alias_matrix(X1: np.ndarray, X2: np.ndarray) -> np.ndarray | None:
    """A1 = M^-1 X1'(I - J/n)X2: bias transmitted from omitted potential terms."""
    p = X1.shape[1]
    factor = information_factor(np.hstack([X1, X2])[None], p, ridge=1.0)  # A1 at any ridge
    L = factor.L[0]
    return _alias(np.linalg.inv(L[:p, :p]), L[p:, :p]) if factor.ok[0] else None


def _weighted_inverse_diag(L_inv: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j ((L L')^-1)_jj for each factor in a stack of inverted Cholesky factors."""
    return _row_dot(np.einsum("ckj,ckj->cj", L_inv, L_inv), weights)


def _row_dot(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rows @ weights, each row's product formed as for a stack of one: a matrix-vector
    product of several rows rounds otherwise, and a design's value must not depend on
    its stack."""
    return (rows[:, None] @ weights)[:, 0]


def _by_part(a: np.ndarray, x: np.ndarray, parts) -> np.ndarray:
    """a @ x on the columns of each of `parts` (its first entry) alone, as a product's
    columns round by its width; all of x for None or one part."""
    if parts is None or len(parts) == 1:
        return a @ x
    return np.concatenate([a @ x[..., cols] for cols, _ in parts], axis=-1)


def _symmetric(a, b, c) -> np.ndarray:
    """The 2 x 2 matrices [[a, b], [b, c]] over b's shape, to which a and c broadcast."""
    out = np.empty(b.shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, b, c
    return out


class _Terms(NamedTuple):
    """What the component formulas read, one entry per design.

    Determinant family: m = log|M|, r = log|R + I/tau2| and bias = the forms
    b'Cb, one column per prior draw. Trace family: m and r are the weighted
    diagonal sums of M^-1 and (R + I/tau2)^-1 and bias is the weighted alias
    sum, sum_j w_j ||row j of A1||^2. r and bias are None when no weighted
    component reads them.
    """

    m: np.ndarray
    r: np.ndarray | None
    bias: np.ndarray | None


@dataclass
class CurrentDesign:
    """One factor of a design's ridged Gram matrix, shared by the screens of its moves.

    L is the lower Cholesky factor of G = W'W + diag(0, 0, I_q/tau2); its
    block after the intercept factors S. A W-row w maps to maps @ w: first
    u = L^-1 w, then the projections the family's Woodbury forms read.
    A move reads its candidate half (`half_rows` entries that depend only on
    the W-row moved in) and the replaced run's column of `per_run`, and is
    screened only if each pivot ratio d_j / d_(j-1) exceeds its `limits` entry.
    `per_run` is placed after :meth:`CriterionEvaluator.factor_current` builds it.

    factor_current builds one for a stack of designs (one design is a stack of
    one): maps, limits, theta, terms and per_run carry the stack's leading axis,
    `screened` marks the designs whose moves are screened, and :meth:`item`
    reads one design's for its own screens.
    """

    n: int              # runs
    maps: np.ndarray    # (m + extra, m) linear maps of a W-row
    # (m - 1, 1), all below 1: for pivot j of S, (largest diag(W'W) + ridge over
    # its block, + 1) * PIVOT_MARGIN * SPD_TOL / pivot_j^2
    limits: np.ndarray
    # limits.max(): every ratio of a move with down[-1] > theta * (1 + sum u^2) passes
    theta: float
    terms: _Terms       # the design's own terms
    half_rows: int      # CriterionEvaluator.half_rows: entries of one move's candidate half
    # column i: run i's candidate half with 1 - the two sums of (L^-1 w)^2 in
    # place of 1 + them; set by CriterionEvaluator.place_runs
    per_run: np.ndarray | None = None
    screened: list[bool] | None = None  # a stack's: see CriterionEvaluator.factor_current

    def item(self, i: int) -> "CurrentDesign":
        """Design i of a stack, its runs placed."""
        return CurrentDesign(self.n, self.maps[i], self.limits[i], float(self.theta[i]),
                             _Terms._make(None if t is None else t[i:i + 1] for t in self.terms),
                             self.half_rows, self.per_run[i])

    def split(self, columns):
        """The row blocks of `per_run` or candidate-half columns: k, 2, rest."""
        k = self.maps.shape[-2]
        return columns[..., :k, :], columns[..., k:k + 2, :], columns[..., k + 2:, :]


def stack_current(designs: list[CurrentDesign], counts: list[int]):
    """(current, parts) for counts[i] moves of designs[i], in that order, screened in one
    block as :meth:`CriterionEvaluator._moved_terms` reads them: current holds each move's
    design's theta and terms, and parts each design's (columns, pivot limits)."""
    parts = [(slice(end - count, end), design.limits)
             for design, count, end in zip(designs, counts, itertools.accumulate(counts))]
    at, first = np.arange(len(designs)).repeat(counts), designs[0]  # each move's design
    return CurrentDesign(first.n, first.maps, None, np.array([d.theta for d in designs])[at],
                         _Terms._make(None if t[0] is None else np.concatenate(t)[at]
                                      for t in zip(*(d.terms for d in designs))),
                         first.half_rows), parts


class CriterionEvaluator:
    """Shared, precomputed state for scoring many designs under one spec.

    The search ranks moves with :meth:`screen_block`, one folded value form for
    either family, and scores those it may accept with :meth:`factor_objective`,
    positively weighted components only; reports call :meth:`breakdown`, all three.
    The exchange objective reads once how many moves one screen block holds
    (:meth:`block_moves`), the one count that cuts its screen calls into blocks.
    """

    def __init__(self, primary: TermSet, potential: TermSet, n_runs: int,
                 config: CriterionConfig):
        self.config = config
        self.p = len(primary)
        self.q = len(potential)
        self.exps1 = primary.exponent_matrix()
        self.exps2 = potential.exponent_matrix()
        self.w1 = primary.weights()
        self.w2 = potential.weights()
        self.kappa = config.kappa
        self._weighted = tuple(k > 0 for k in self.kappa)
        # Trace family: F_{1,d}. Determinant family: the confidence-region
        # quantile spans all p+1 estimated parameters (intercept included).
        df1_primary = 1 if config.is_trace_family else self.p + 1
        df1_lof = 1 if config.is_trace_family else max(self.q, 1)
        self._fq_primary = f_quantile_table(df1_primary, n_runs, 1.0 - config.alpha)
        self._fq_lof = f_quantile_table(df1_lof, n_runs, 1.0 - config.alpha_lof)
        self._log_fq = np.log(self._fq_primary), np.log(self._fq_lof)  # +inf at pe_df = 0
        self._needs_pure_error = config.needs_pure_error(self.q)
        # the screen's folded value, F[pe_df] and the weights `_fold` (see _moved_terms)
        k1, k2, k3 = self.kappa[0], self.kappa[1] if self.q else 0.0, self.kappa[2]
        self._log_f = sum((k * t for k, t in zip((k1, k2), self._log_fq) if k > 0),
                          np.zeros(n_runs + 1))  # F: a zero weight reads no +inf quantile
        cm, cr = -(k1 + k3) / self.p, -k2 / max(self.q, 1)
        self._fold = (k1, k2, k3) if config.is_trace_family else (cm, cr, cm - cr, k3 / self.p)
        if config.family != "MSE.D":  # the one point prior b = tau * 1_q
            self._point_draw = np.full((1, self.q), math.sqrt(config.tau2))
        # the rank-two screen's constants
        m, p, q = 1 + self.p + self.q, self.p, self.q
        self._tri = np.tri(m)  # running sums as one product
        self._ends = self._tri[[p, m - 1]]  # those at the ends of the M block and of S
        if config.is_trace_family:  # row f weighs the products of Gram f (see _trace_grams)
            blocks = np.arange(4)[:, None] == np.repeat(np.arange(4), [p, q, q, p])
            self._gram_weights = blocks * np.r_[self.w1, self.w2, np.ones(q + p)]

    @classmethod
    def from_spec(cls, spec: "ExperimentSpec", n_runs: int | None = None) -> "CriterionEvaluator":
        return cls(spec.primary, spec.potential, spec.n_runs if n_runs is None else n_runs,
                   spec.criterion)

    # -- the component formulas ---------------------------------------------

    def _component_logs(self, terms: _Terms, pe_df, need):
        """Log DP/LP, LoF and MSE values and the log base of each design (pe_df: its
        pure-error df, or one for all).

        The one place where an exact value's quantiles inflate, and terms combine
        into, component values. Components not in `need` are NaN.
        """
        p, q = self.p, self.q
        log1 = log3 = None if all(need) else np.full(terms.m.shape, np.nan)
        # without potential terms the LoF component is neutral (1)
        log2 = np.zeros(terms.m.shape) if need[1] and not q else log1
        if self.config.is_trace_family:
            base = terms.m
            if need[0]:
                log1 = np.log(self._fq_primary[pe_df] * base)
            if need[1] and q:
                log2 = np.log(self._fq_lof[pe_df] * terms.r)
            if need[2]:
                log3 = np.log(base if terms.bias is None
                              else base + self.config.tau2 * terms.bias)
            return log1, log2, log3, np.log(base)
        log_base = terms.m / -p  # log |M^-1|^(1/p)
        if need[0]:
            log1 = self._log_fq[0][pe_df] + log_base
        if need[1] and q:
            log2 = self._log_fq[1][pe_df] - terms.r / q
        if need[2]:
            bias = 0.0
            if terms.bias is not None:  # the mean over draws, np.mean's call overhead spared
                draws = terms.bias.shape[-1]
                bias = (np.log1p(terms.bias[..., 0]) if draws == 1
                        else np.log1p(terms.bias).sum(axis=-1) / draws)
            log3 = log_base + bias / p
        return log1, log2, log3, log_base

    def _bias_forms(self, L21, prior):
        """b'Cb with C = Z'M^-1Z = L21 L21' for each factor: one column per prior
        draw (MSE.D), or the one point prior b = tau * 1_q (MSE.P)."""
        if self.config.family == "MSE.D":
            proj = np.einsum("bq,cqp->cbp", self._draws(prior), L21)
            return np.einsum("cbp,cbp->cb", proj, proj)
        z = L21.sum(axis=1)
        return self.config.tau2 * np.einsum("cp,cp->c", z, z)[:, None]

    def _draws(self, prior):
        """The bias coefficients b the MSE component averages over, one per row."""
        if self.config.family != "MSE.D":
            return self._point_draw
        if prior is None:
            raise ValueError("MSE.D evaluation needs a PriorSample")
        return prior.draws

    def exact_factor(self, X, prior, need=None) -> ExactFactor:
        """:func:`information_factor` of each design of a stack X = [X1 | X2], and the
        terms of the components in `need` (default: the weighted ones)."""
        p, factor = self.p, information_factor(X, self.p, 1.0 / self.config.tau2)
        need = need or self._weighted
        lof, bias = need[1] and self.q, need[2] and self.q
        stack, inverses = factor.L, None
        L21 = stack[:, p:, :p]
        if not self.config.is_trace_family:
            logs = np.log(stack.diagonal(axis1=1, axis2=2))
            terms = _Terms(2.0 * logs[:, :p].sum(axis=1),  # log |M|
                           2.0 * logs[:, p:].sum(axis=1) if lof else None,
                           self._bias_forms(L21, prior) if bias else None)
        else:
            with np.errstate(**QUIET):  # L22 may be near singular
                L11_inv = np.linalg.inv(stack[:, :p, :p])
                L22_inv = np.linalg.inv(stack[:, p:, p:]) if lof else None
                A1 = _alias(L11_inv, L21) if bias else None
                terms = _Terms(_weighted_inverse_diag(L11_inv, self.w1),
                               _weighted_inverse_diag(L22_inv, self.w2) if lof else None,
                               _row_dot(np.einsum("cjr,cjr->cj", A1, A1), self.w1)
                               if bias else None)
            inverses = L11_inv, L22_inv, A1
        return ExactFactor(*factor[:7], terms, inverses)

    def _exact_logs(self, factor: ExactFactor, pe_df, need):
        """The formulas on an exact factor: (log1, log2, log3, log base), arrays over
        its designs (pe_df: one per design, or one for all)."""
        with np.errstate(**QUIET):
            logs = list(self._component_logs(factor.terms, pe_df, need))
        if need[1] and not all(factor.potential_ok):
            logs[1] = np.where(factor.potential_ok, logs[1], np.inf)
        if not all(factor.ok):  # M fails the SPD rule: every component of either family is +inf
            logs = [np.where(factor.ok, v, np.inf) for v in logs]
        return tuple(logs)

    def _combine(self, logs):
        return sum(k * v for k, v in zip(self.kappa, logs) if k > 0)  # over positive weights

    # -- design-level entry points ------------------------------------------

    def breakdown(self, X1: np.ndarray, X2: np.ndarray, pe_df: int, lof_df: int,
                  prior: PriorSample | None) -> CriterionBreakdown:
        """Every component of the design with model matrices (X1, X2), weighted or not."""
        need = (True, True, True)
        factor = self.exact_factor(np.hstack([X1, X2])[None], prior, need)
        *logs, log_base = (float(v[0]) for v in self._exact_logs(factor, pe_df, need))
        phi1, phi2, phi3 = (math.exp(v) for v in logs)
        return CriterionBreakdown(
            phi_primary=phi1, phi_lof=phi2, phi_mse=phi3, phi_base=math.exp(log_base),
            pe_df=pe_df, lof_df=lof_df, log_compound=self._combine(logs),
        )

    def factor_objective(self, factor, pe_df) -> np.ndarray:
        """The log objectives of the designs that :meth:`exact_factor` factored."""
        return self._combine(self._exact_logs(factor, pe_df, self._weighted)[:3])

    # -- rank-two move screen -----------------------------------------------

    def half_rows(self, prior: PriorSample | None) -> int:
        """Entries of one move's candidate half, fixed by the spec and the prior: the maps'
        rows (see :meth:`factor_current`), two running sums and the trace family's 4 Grams."""
        p, q = self.p, self.q  # maps: L^-1, then v1, v2, e and a, or two projections per draw
        return 3 + p + q + (2 * p + 2 * q + 4 if self.config.is_trace_family
                            else 2 * len(self._draws(prior)) if self._weighted[2] and q else 0)

    def block_moves(self, prior: PriorSample | None) -> int:
        """The most moves whose candidate halves fit in one SCREEN_CHUNK block, at least one."""
        return max(1, SCREEN_CHUNK // self.half_rows(prior))

    def factor_current(self, prior: PriorSample | None, factor: ExactFactor) -> CurrentDesign:
        """The screen's factors of the designs that :meth:`exact_factor` factored, a
        stack (:meth:`ExactFactor.gather` stacks designs of several).

        Read from `factor`, their one source, without a factorisation: G's
        factor inverts to [[1/sqrt(n), 0], [-L^-1 s / n, L^-1]], with s the
        call's column sums and L^-1 assembled from its inverted blocks (trace
        family) or inverted. Places no runs: `per_run` waits for
        :meth:`place_runs`. A design's moves are screened only if its M and
        potential blocks pass (`potential_ok`) and every pivot's limit is below
        1 (see :class:`CurrentDesign`); else they are scored exactly.
        """
        p, q, n = self.p, self.q, factor.n
        S_factor = factor.L
        # a move adds at most 1 to an entry of diag(W'W): pivot j's limit keeps its
        # square above every moved scale of its block
        most = np.maximum.reduce  # along the last axis
        limits = (PIVOT_MARGIN * SPD_TOL) / factor.pivots
        limits[..., :p] *= most(factor.gram[..., :p], -1, keepdims=True) + 1.0
        limits[..., p:] *= (most(factor.gram[..., p:], -1, initial=0.0, keepdims=True)
                            + 1.0 / self.config.tau2 + 1.0)
        theta = most(limits, -1)
        L_inv = np.zeros((len(S_factor), 1 + p + q, 1 + p + q))
        S_inv = L_inv[..., 1:, 1:]
        L21, L22 = S_factor[..., p:, :p], S_factor[..., p:, p:]
        A1 = None
        if factor.inverses is None:
            S_inv[...] = np.linalg.inv(S_factor)
        else:  # S's factor is block triangular: so is its inverse
            L11_inv, L22_inv, A1 = factor.inverses
            S_inv[..., :p, :p] = L11_inv
            S_inv[..., p:, p:] = np.linalg.inv(L22) if L22_inv is None else L22_inv
            S_inv[..., p:, :p] = -S_inv[..., p:, p:] @ L21 @ S_inv[..., :p, :p]
        L_inv[..., 0, 0] = 1.0 / math.sqrt(n)
        L_inv[..., 1:, 0] = (S_inv @ factor.sums[..., None])[..., 0] / -n
        to1, to2 = L_inv[..., 1:p + 1, :], L_inv[..., p + 1:, :]  # w -> u1, u2 on S's scale
        maps = [L_inv]
        if self.config.is_trace_family:
            # v1 = L11^-T u1, v2 = L22^-T u2, e = L22 u2 and a = W1 A1 e
            L11_inv = S_inv[..., :p, :p]
            E = L22 @ to2
            if A1 is None:  # the exact call forms A1 only under a bias weight
                A1 = _alias(L11_inv, L21)
            maps += [L11_inv.swapaxes(-1, -2) @ to1, S_inv[..., p:, p:].swapaxes(-1, -2) @ to2,
                     E, (self.w1[:, None] * A1) @ E]
        elif self._weighted[2] and q:
            draws = self._draws(prior)
            proj = draws @ S_factor[..., p:, :]  # b'[L21 L22] for each draw b
            maps += [proj @ L_inv[..., 1:, :], proj[..., p:] @ to2]  # b'L21 u1 + b'L22 u2, b'L22 u2
        return CurrentDesign(n=n, maps=np.concatenate(maps, axis=-2), limits=limits[..., None],
                             theta=theta, terms=factor.terms, half_rows=self.half_rows(prior),
                             screened=[good and t < 1.0 for good, t in zip(factor.potential_ok,
                                                                             theta.tolist())])

    def place_runs(self, current: CurrentDesign, half: np.ndarray) -> None:
        """Keep as current.per_run the candidate halves of the design's own
        W-rows (of each design's, stacked), one column per run, with 1 - the
        two sums of u^2 in place of 1 + them."""
        current.per_run, sums = half, current.split(half)[1]
        np.subtract(2.0, sums, out=sums)

    def candidate_half(self, current: CurrentDesign, rows: np.ndarray) -> np.ndarray:
        """What every move to W-row w = rows[c] reads of w alone, in column c.

        z = maps @ w (u = L^-1 w first), 1 + the two running sums of u^2 and
        the trace family's Grams of z's projections: `current.half_rows` entries.
        A stacked `current` gives one half per design, of `rows` or of its own
        rows (rows with the same leading axis)."""
        m = current.maps.shape[-1]
        half = np.empty(current.maps.shape[:-2] + (current.half_rows, rows.shape[-2]))
        z, uu1, own = current.split(half)
        np.matmul(current.maps, rows.swapaxes(-1, -2), out=z)
        np.add(1.0, self._ends @ np.square(z[..., :m, :]), out=uu1)
        if self.config.is_trace_family:
            own[...] = self._trace_grams(z[..., m:, :], z[..., m:, :])
        return half

    def _trace_grams(self, x, y, parts=None) -> np.ndarray:
        """The trace family's four Grams of projections x = [v1 | v2 | e | a] with y, per
        column (they broadcast, formed by part: see _by_part): w1-weighted v1'v1,
        w2-weighted v2'v2, e'e, symmetrised v1'a."""
        p, r = self.p, self.p + 2 * self.q  # v1, v2 and e fill rows :r, a the rest
        products = np.concatenate([x[..., :r, :] * y[..., :r, :],
                                   x[..., :p, :] * y[..., r:, :] + x[..., r:, :] * y[..., :p, :]],
                                  axis=-2)
        return _by_part(self._gram_weights, products, parts)

    def screen_block(self, current: CurrentDesign | None, run_half, half,
                     pe_df: np.ndarray, parts=None) -> np.ndarray:
        """Approximate log objectives of a block of moves of `current`: move c reads column
        c of `half` (:meth:`candidate_half` of the W-row w moved in), of `run_half` (the
        replaced run's `per_run` column; one serves every move, and with a leading run axis
        every column of `half` is screened for each run) and of pe_df, the moved design's.

        A move changes G to L(I + u u' - y y')L' with u = L^-1 w and y = L^-1 of the
        replaced W-row; every component is read from that rank-two form without a
        factorisation (:meth:`_moved_terms`'s folded value plus F[pe_df], in either
        family), so moves of several runs and designs stack in one call: with `parts`
        (:func:`stack_current`), each part screens as its design's own call, bit for bit.
        The values rank moves and agree with :meth:`factor_objective` to rounding. An
        entry is +inf where the design certainly scores +inf (no pure error under a
        positive quantile-bearing weight) and NaN where it must be scored exactly: no
        usable factor (`current` None, nothing else read), a pivot ratio at or below its
        limit (a failed downdate among them) or a non-finite value. Where theta certifies
        a block's (a run's) every move, no ratio is formed, with the same values.
        """
        if current is None or not pe_df.size:  # no usable factor, or no moves
            return np.where((pe_df == 0) & self._needs_pure_error, np.inf, np.nan)
        ok, moved = self._moved_terms(current, run_half, half, parts)
        value = self._log_f[pe_df] + moved
        out = np.where(ok & np.isfinite(value), value, np.nan)
        if self._needs_pure_error:
            out[pe_df == 0] = np.inf
        return out

    def _moved_terms(self, current: CurrentDesign, run_half, half: np.ndarray, parts=None):
        """(ok, moved) of each move: whether it may be screened, and its log objective
        less F[pe_df], one folded value in either family.

        Move c reads column c of `half` (:meth:`candidate_half`) and of
        `run_half`, its run's y, down and Grams (one run's column broadcasts);
        with a leading run axis on `run_half`, (R, rows, 1), every column for
        each run, in products stacked from those of a call for one run. With
        U = [u y] after the intercept, sweeping the intercept out of I + u u' -
        y y' leaves I + U Sigma U' on S's scale, with Sigma = [[1 - 1/n, 1/n],
        [1/n, -1 - 1/n]]. Its leading blocks have
        determinants d_j = (1 + sum u^2)(1 - sum y^2) + (sum u y)^2, sums
        over the first j + 1 entries of u and y, which give the pivots,
        log|M| and log|R + I/tau2|. Inverses follow by Woodbury through the
        2 x 2 matrix X = (Sigma^-1 + U'U)^-1 = [[1 - c, b], [b, -1 - a]] / d,
        with a, b, c the sums of u^2, u y and y^2 over the block and the
        intercept (whose entries u_0 = y_0 = 1/sqrt(n) turn Sigma^-1 into
        diag(1, -1)).

        d, X and the certificate read the sums at the ends of the M block
        (row 0) and of S (row 1), the two rows the half and `per_run` keep.
        Each pivot ratio d_j / d_(j-1) is at least rho = down[-1] / uu1[-1]:
        (sum u y)^2 <= a c by Cauchy-Schwarz, and a and c grow with j, so
        d_(j-1) <= 1 + a - c <= uu1[-1] and, while down[-1] > 0, d_j >=
        (1 + a)(1 - c) >= down[-1]. Only a call (a run) with a move whose rho
        is not above `current.theta` forms every d_j, from u and y, per part.
        A call of one run or a window forms each run's two sums of u y as one (2, m)
        product of its masked row, (y' * _ends) @ u, stacked over runs (a 2-D product of
        several runs' rows rounds by their count); per-move calls sum u * y per part.
        The value folds the formulas over positive weights (`_fold`; k2 = 0 if q = 0):
        k1 log m' + k2 log r' + k3 log(m' + tau2 a') of the moved trace terms (a' = 0 if
        q = 0), or c + a1 log d1 + aS log dS + a3 mean_b log1p(quad_b), d1 and dS the d of
        M and of S: c = -(k1 + k3) m / p - k2 r / q of the design's own terms (per move if
        parts stack), a1 = -(k1 + k3) / p + k2 / q, aS = -k2 / q and a3 = k3 / p.
        """
        n, m = current.n, current.maps.shape[1]
        z, uu1, own = current.split(half)
        zi, down, own_i = current.split(run_half)
        u, y = z[:m], zi[..., :m, :]  # only run_half may have a leading run axis
        uy = ((y.swapaxes(-1, -2) * self._ends) @ u if y.shape[-1] == 1  # a run's column
              else _by_part(self._ends, u * y, parts))
        d = uu1 * down + uy * uy
        ok = down[..., -1, :] > current.theta * uu1[-1]
        for cols, limits in parts or [(slice(None), current.limits)]:
            if not ok[..., cols].all():
                redo = ~ok[..., cols].all(axis=-1)  # one flag per run, or one for the call
                # a failed downdate (the first d_j <= 0, or a few ulps for an exactly
                # singular move) gives a ratio below every limit, or NaN; a flag
                # indexes as a run axis of one
                uc, yc = u[:, cols], y[..., cols][redo]
                uy_j = self._tri @ (uc * yc)
                d_j = (1.0 + self._tri @ (uc * uc)) * (1.0 - self._tri @ (yc * yc)) + uy_j * uy_j
                ok[..., cols][redo] = (d_j[..., 1:, :] / d_j[..., :-1, :] > limits).all(axis=-2)
        t, need = current.terms, self._weighted
        lof, bias = need[1] and self.q, need[2] and self.q
        if self.config.is_trace_family:
            # M^-1, (R + I/tau2)^-1 and A1 = M^-1 Z move to M^-1 - V1 X1 V1',
            # (S^-1)_22 - V2 X V2' and A1 + V1 X1 E', with V1 = L11^-T U1,
            # V2 = L22^-T U2 and E = L22 U2; the 2 x 2 Grams G of the forms
            # read U'(form)U for each move (the forms are symmetric)
            G = _symmetric(own, self._trace_grams(z[m:], zi[..., m:, :], parts), own_i)
            X = _symmetric(down, uy, -uu1) / d[..., None, None]
            # sums over each 2 x 2 (np.add.reduce: ndarray.sum is slower on negative axes)
            drop = np.add.reduce(X * G[..., :2, :, :, :], axis=(-2, -1))
            X0, G0, G2, G3 = X[..., 0, :, :, :], *(G[..., f, :, :, :] for f in (0, 2, 3))
            m1 = t.m - drop[..., 0, :]  # m', r' and the alias sum a' (0 without one)
            alias = (t.bias + np.add.reduce(X0 * G3 + X0 @ G0 @ X0 * G2, axis=(-2, -1))
                     if bias else 0.0)
            moved = m1, t.r - drop[..., 1, :] if lof else None, m1 + self.config.tau2 * alias
            return ok, sum(k * np.log(v) for k, v in zip(self._fold, moved) if k > 0)
        (cm, cr, a1, a3), log_d = self._fold, np.log(d)
        value = (cm * t.m + cr * t.r if lof else cm * t.m) + a1 * log_d[..., 0, :]
        if lof:
            value += cr * log_d[..., 1, :]
        if bias:
            # b'Cb moves to b'Cb + beta' Sigma beta - kappa' X1 kappa, with
            # kappa = U2'L22'b and beta = U1'L21'b + kappa, per draw b
            B = (z.shape[0] - m) // 2
            beta, beta_i = z[m:m + B], zi[..., m:m + B, :]
            kappa, kappa_i = z[m + B:], zi[..., m + B:, :]
            d1 = d[..., :1, :]  # the M block's, as the other sums below
            # both 2 x 2 forms written out, the replaced run's terms formed once (its
            # column broadcasts), and updated in place: the (draws, moves) arrays are the cost
            quad = beta * ((1.0 - 1.0 / n) * beta + (2.0 / n) * beta_i)
            quad += t.bias.T - (1.0 + 1.0 / n) * beta_i * beta_i
            quad -= kappa * (down[..., :1, :] / d1 * kappa + 2.0 * uy[..., :1, :] / d1 * kappa_i)
            quad += uu1[:1] / d1 * (kappa_i * kappa_i)
            draws = quad.shape[-2]
            value += (a3 * np.log1p(quad[..., 0, :]) if draws == 1
                      else np.log1p(quad, out=quad).sum(axis=-2) * (a3 / draws))
        return ok, value


def compound_objective(design: Design, spec: "ExperimentSpec",
                       prior: PriorSample | None = None) -> CriterionBreakdown:
    """Full per-component breakdown of a design under the spec's criterion."""
    X1, X2 = model_matrices(design, spec.primary, spec.potential, spec.grid)
    replicated = replication(treatment_labels(design.settings, spec.grid))
    evaluator = CriterionEvaluator.from_spec(spec, n_runs=design.n)
    return evaluator.breakdown(X1, X2, replicated.pe_df, replicated.lof_df(spec.p), prior)


def efficiency(reference: float, value: float) -> float | None:
    """100 * reference / value; 0 for an infinite value, None (blank) for 0."""
    if math.isnan(value) or math.isnan(reference) or reference == math.inf:
        return None
    if value == math.inf:
        return 0.0
    if value == 0.0:
        return None
    return 100.0 * reference / value
