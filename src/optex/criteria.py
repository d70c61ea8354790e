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
alone turns terms into component values.

SPD_TOL is applied per block. A pivot of the M block at or below SPD_TOL
times the largest diagonal entry of X1'X1 makes every component +inf (the
uncentred sums of squares: M's own diagonal would pass a constant column on
its rounding residue); a pivot of the potential block, against the largest
diagonal entry of R + I/tau2, makes only the LoF component +inf. Designs
without pure-error degrees of freedom are +inf on the quantile-bearing
components. None of these are errors, so exchange searches can score
arbitrary candidate designs. Everything is combined in the log domain.

:meth:`CriterionEvaluator.exact_factor` factors the design's own S, the one
definition of an objective value. The exchange search ranks moves with
:meth:`CriterionEvaluator.screen_moves`, which reads the current design's
factor from that one, its only source (:meth:`CriterionEvaluator.factor_current`,
redone from the exact confirm of every accepted exchange), and the terms of
every one-run replacement from a rank-two update of it, in closed form: a
candidate half per W-row moved in (:meth:`CriterionEvaluator.candidate_half`)
and a run half per move, each with two running sums. Both exchanges move a
run to a new treatment label and keep the candidate half of every label
while they all fit in SCREEN_CHUNK entries, else build those of each call's
moves. Screens run under the exchange's ``np.errstate``.

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
    set_checked,
    treatment_counts,
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
# Entries of candidate halves (CurrentDesign.half_rows per move) screened per
# block, which keeps MSE.D's (draws, moves) arrays in cache; the exchange
# objective keeps every treatment label's half only while they fit in one block.
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


def information_factor(X1: np.ndarray, X2: np.ndarray,
                       ridge: float) -> tuple[np.ndarray | None, bool]:
    """One Cholesky factor of the design's ridged information matrix S.

    Returns (L, potential_ok). L is None when the M block fails the SPD_TOL
    rule, against the uncentred sums of squares of X1. potential_ok is False
    when the potential block fails it; if the joint factorisation itself
    failed, the M block is factored alone and L's potential block is the
    identity, so DP and MSE stay readable.
    """
    p, q = X1.shape[1], X2.shape[1]
    X = np.hstack([X1, X2])
    s = X.sum(axis=0)
    G = X.T @ X
    S = G - np.outer(s, s) / X.shape[0]  # the factorisation reads its lower triangle
    S.flat[p * (p + q + 1)::p + q + 1] += ridge  # the potential block's diagonal
    potential_ok = True
    L = spd_logdet_inverse(S)
    if L is None:
        L11 = spd_logdet_inverse(S[:p, :p])
        if L11 is None:
            return None, False
        L = np.eye(p + q)
        L[:p, :p] = L11
        L[p:, :p] = (np.linalg.inv(L11) @ S[:p, p:]).T
        potential_ok = False
    # A block fails when its least squared pivot is not above SPD_TOL times its
    # largest scale: for M, X1'X1's diagonal; for the potential block (passed
    # when empty), L22's squared row norms, the diagonal of R + I/tau2.
    pivots = np.diagonal(L) ** 2
    if not pivots[:p].min() > SPD_TOL * np.diagonal(G)[:p].max():
        return None, False
    L22 = L[p:, p:]
    r_scale = np.einsum("ij,ij->i", L22, L22).max(initial=0.0)
    return L, potential_ok and bool(pivots[p:].min(initial=np.inf) > SPD_TOL * r_scale)


def _alias(L11_inv: np.ndarray, L21: np.ndarray) -> np.ndarray:
    """A1 = M^-1 Z = L11^-T L21' for one factor or a stack."""
    return np.einsum("...kj,...rk->...jr", L11_inv, L21)


def alias_matrix(X1: np.ndarray, X2: np.ndarray) -> np.ndarray | None:
    """A1 = M^-1 X1'(I - J/n)X2: bias transmitted from omitted potential terms."""
    L, _ = information_factor(X1, X2, ridge=1.0)  # A1 does not depend on the ridge
    if L is None:
        return None
    p = X1.shape[1]
    return _alias(np.linalg.inv(L[:p, :p]), L[p:, :p])


def _weighted_inverse_diag(L_inv: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j ((L L')^-1)_jj for each factor in a stack of inverted Cholesky factors."""
    return np.einsum("ckj,ckj->cj", L_inv, L_inv) @ weights


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


@dataclass(frozen=True)
class CurrentDesign:
    """One factor of a design's ridged Gram matrix, shared by the screens of its moves.

    L is the lower Cholesky factor of G = W'W + diag(0, 0, I_q/tau2); its
    block after the intercept factors S. A W-row w maps to maps @ w: first
    u = L^-1 w, then the projections the family's Woodbury forms read.
    A move reads its candidate half (`half_rows` entries that depend only on
    the W-row moved in) and the replaced run's column of `per_run`, and is
    screened only if each pivot ratio d_j / d_(j-1) exceeds its `limits` entry.
    """

    n: int              # runs
    maps: np.ndarray    # (m + extra, m) linear maps of a W-row
    # column i: run i's row through maps, then 1 - the sums of (L^-1 w)^2 (2)
    per_run: np.ndarray
    # (m - 1, 1), all below 1: for pivot j of S, (largest diag(W'W) + ridge over
    # its block, + 1) * PIVOT_MARGIN * SPD_TOL / pivot_j^2
    limits: np.ndarray
    # limits.max(): every ratio of a move with down[-1] > theta * (1 + sum u^2) passes
    theta: float
    terms: _Terms       # the design's own terms
    half_rows: int      # entries of one move's candidate half

    def fits(self, moves: int) -> bool:
        """Whether the candidate halves of `moves` moves fit in SCREEN_CHUNK entries."""
        return moves * self.half_rows <= SCREEN_CHUNK

    def split(self, columns):
        """The row blocks of `per_run` or candidate-half columns: k, 2, rest."""
        k = self.maps.shape[0]
        return columns[:k], columns[k:k + 2], columns[k + 2:]


class CriterionEvaluator:
    """Shared, precomputed state for scoring many designs under one spec.

    The search ranks moves with :meth:`screen_moves` and scores the ones it
    may accept with :meth:`factor_objective`, which evaluates only positively
    weighted components; reports call :meth:`breakdown`, which evaluates all
    three. All of them turn terms into components with :meth:`_component_logs`.
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
        self._positive = [i for i, k in enumerate(self.kappa) if k > 0]
        # Trace family: F_{1,d}. Determinant family: the confidence-region
        # quantile spans all p+1 estimated parameters (intercept included).
        df1_primary = 1 if config.is_trace_family else self.p + 1
        df1_lof = 1 if config.is_trace_family else max(self.q, 1)
        self._fq_primary = f_quantile_table(df1_primary, n_runs, 1.0 - config.alpha)
        self._fq_lof = f_quantile_table(df1_lof, n_runs, 1.0 - config.alpha_lof)
        self._log_fq = np.log(self._fq_primary), np.log(self._fq_lof)  # +inf at pe_df = 0
        self._needs_pure_error = config.needs_pure_error(self.q)
        if config.family != "MSE.D":  # the one point prior b = tau * 1_q
            self._point_draw = np.full((1, self.q), math.sqrt(config.tau2))
        # the rank-two screen's constants
        m, p, q = 1 + self.p + self.q, self.p, self.q
        self._ridge = np.concatenate([np.zeros(1 + p), np.full(q, 1.0 / config.tau2)])
        self._tri = np.tri(m)  # running sums as one product
        self._ends = self._tri[[p, m - 1]]  # those at the ends of the M block and of S
        if config.is_trace_family:
            # forms on the trace family's projections [v1 | v2 | e | a]: the
            # w1- and w2-weighted Grams of v1 and v2, the Gram of e, and the
            # symmetrised v1'a (see factor_current)
            k = 2 * p + 2 * q
            forms = np.zeros((4, k, k))
            forms[0, :p, :p] = np.diag(self.w1)
            forms[1, p:p + q, p:p + q] = np.diag(self.w2)
            forms[2, p + q:p + 2 * q, p + q:p + 2 * q] = np.eye(q)
            forms[3, :p, p + 2 * q:] = forms[3, p + 2 * q:, :p] = np.eye(p)
            self._trace_forms = forms

    @classmethod
    def from_spec(cls, spec: "ExperimentSpec", n_runs: int | None = None) -> "CriterionEvaluator":
        return cls(spec.primary, spec.potential, spec.n_runs if n_runs is None else n_runs,
                   spec.criterion)

    # -- the component formulas ---------------------------------------------

    def _component_logs(self, terms: _Terms, pe_df, need):
        """Log DP/LP, LoF and MSE values and the log base of each design.

        The one place where quantiles inflate, and terms combine into,
        component values. Components not in `need` are NaN.
        """
        p, q = self.p, self.q
        log1 = log3 = None if all(need) else np.full(terms.m.shape[0], np.nan)
        # without potential terms the LoF component is neutral (1)
        log2 = np.zeros(terms.m.shape[0]) if need[1] and not q else log1
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
        log_base = -terms.m / p  # log |M^-1|^(1/p)
        if need[0]:
            log1 = self._log_fq[0][pe_df] + log_base
        if need[1] and q:
            log2 = self._log_fq[1][pe_df] - terms.r / q
        if need[2]:
            bias = 0.0
            if terms.bias is not None:  # the mean over draws, np.mean's call overhead spared
                draws = terms.bias.shape[1]
                bias = (np.log1p(terms.bias[:, 0]) if draws == 1
                        else np.log1p(terms.bias).sum(axis=1) / draws)
            log3 = log_base + bias / p
        return log1, log2, log3, log_base

    def _factor_terms(self, L, prior, need) -> _Terms:
        """The terms of each factor in a (C, p+q, p+q) stack of factors of S."""
        p = self.p
        L11, L21, L22 = L[:, :p, :p], L[:, p:, :p], L[:, p:, p:]
        lof, bias = need[1] and self.q, need[2] and self.q
        if self.config.is_trace_family:
            L11_inv = np.linalg.inv(L11)
            L22_inv = np.linalg.inv(L22) if lof else None
            A1 = _alias(L11_inv, L21) if bias else None
            return _Terms(
                _weighted_inverse_diag(L11_inv, self.w1),
                _weighted_inverse_diag(L22_inv, self.w2) if lof else None,
                np.einsum("cjr,cjr->cj", A1, A1) @ self.w1 if bias else None)
        diag = np.diagonal(L, axis1=1, axis2=2)
        return _Terms(2.0 * np.log(diag[:, :p]).sum(axis=1),  # log |M|
                      2.0 * np.log(diag[:, p:]).sum(axis=1) if lof else None,
                      self._bias_forms(L21, prior) if bias else None)

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

    def exact_factor(self, X1, X2, prior, need=None) -> tuple:
        """(L, potential_ok, terms): :func:`information_factor` of the design's
        own S and the terms of the components in `need` (default: the weighted
        ones); L and terms are None when the M block fails the SPD_TOL rule."""
        L, potential_ok = information_factor(X1, X2, 1.0 / self.config.tau2)
        if L is None:
            return None, False, None
        with np.errstate(**QUIET):
            return L, potential_ok, self._factor_terms(L[None], prior, need or self._weighted)

    def _exact_logs(self, factor, pe_df, need):
        """The formulas on one exact factor: (log1, log2, log3, log base)."""
        L, potential_ok, terms = factor
        if L is None:
            # M fails the SPD rule: every component of either family is +inf
            return math.inf, math.inf, math.inf, math.inf
        with np.errstate(**QUIET):
            logs = [float(v[0]) for v in self._component_logs(terms, np.array([pe_df]), need)]
        if not potential_ok and need[1]:
            logs[1] = math.inf
        return tuple(logs)

    def _combine(self, logs):
        total = 0.0  # sum() over the positive weights, in place once an array
        for i in self._positive:
            total += self.kappa[i] * logs[i]
        return total

    # -- design-level entry points ------------------------------------------

    def breakdown(self, X1: np.ndarray, X2: np.ndarray, pe_df: int, lof_df: int,
                  prior: PriorSample | None) -> CriterionBreakdown:
        """Every component of the design with model matrices (X1, X2), weighted or not."""
        need = (True, True, True)
        *logs, log_base = self._exact_logs(self.exact_factor(X1, X2, prior, need), pe_df, need)
        phi1, phi2, phi3 = (math.exp(v) for v in logs)
        return CriterionBreakdown(
            phi_primary=phi1, phi_lof=phi2, phi_mse=phi3, phi_base=math.exp(log_base),
            pe_df=pe_df, lof_df=lof_df, log_compound=self._combine(logs),
        )

    def factor_objective(self, factor, pe_df: int) -> float:
        """The log objective of the design that :meth:`exact_factor` factored."""
        return self._combine(self._exact_logs(factor, pe_df, self._weighted)[:3])

    # -- rank-two move screen -----------------------------------------------

    def factor_current(self, W: np.ndarray, prior: PriorSample | None,
                       factor) -> CurrentDesign | None:
        """The screen's factor of the design whose W = [1 | X1 | X2] rows are `W`.

        Read from the design's :meth:`exact_factor` L (`factor`, its one
        source) without a factorisation: G's factor inverts to [[1/sqrt(n), 0],
        [-L^-1 s / n, L^-1]], s the column sums of [X1 | X2]. None when L is
        None, its potential block fails, or a pivot's limit is not below 1
        (see :class:`CurrentDesign`): its moves are then scored exactly.
        """
        p, q, (n, m) = self.p, self.q, W.shape
        S_factor, potential_ok, terms = factor
        if S_factor is None or not potential_ok:
            return None
        sums = W.sum(axis=0)  # of W's columns; sumsq has the ridge
        sumsq = np.einsum("ij,ij->j", W, W) + self._ridge
        # a move adds at most 1 to an entry of sumsq: pivot j's limit keeps its
        # square above every moved scale of its block
        bound = np.repeat([sumsq[1:p + 1].max(), sumsq[p + 1:].max(initial=0.0)], (p, q)) + 1.0
        limits = bound / (np.diagonal(S_factor) ** 2 / (PIVOT_MARGIN * SPD_TOL))
        theta = limits.max()
        if not theta < 1.0:
            return None
        S_inv = np.linalg.inv(S_factor)  # inverts S_factor, block by block too
        L_inv = np.zeros((m, m))
        L_inv[0, 0] = 1.0 / math.sqrt(n)
        L_inv[1:, 0] = S_inv @ sums[1:] / -n
        L_inv[1:, 1:] = S_inv
        to1, to2 = L_inv[1:p + 1], L_inv[p + 1:]  # w -> u1, u2 on S's scale
        L21, L22 = S_factor[p:, :p], S_factor[p:, p:]
        maps = [L_inv]
        if self.config.is_trace_family:
            # v1 = L11^-T u1, v2 = L22^-T u2, e = L22 u2 and a = W1 A1 e
            L11_inv = S_inv[:p, :p]
            E = L22 @ to2
            maps += [L11_inv.T @ to1, S_inv[p:, p:].T @ to2, E,
                     (self.w1[:, None] * _alias(L11_inv, L21)) @ E]
        elif self._weighted[2] and q:
            draws = self._draws(prior)
            to_k = (draws @ L22) @ to2  # b'L22 u2 for each draw b
            maps += [(draws @ L21) @ to1 + to_k, to_k]
        maps = np.concatenate(maps)
        runs = maps @ W.T
        per_run = np.concatenate([runs, 1.0 - self._ends @ runs[:m] ** 2])
        return CurrentDesign(n=n, maps=maps, per_run=per_run, limits=limits[:, None],
                             theta=float(theta), terms=terms,
                             half_rows=per_run.shape[0] + 4 * self.config.is_trace_family)

    def candidate_half(self, current: CurrentDesign, rows: np.ndarray) -> np.ndarray:
        """What every move to W-row w = rows[c] reads of w alone, in column c.

        z = maps @ w (u = L^-1 w first), 1 + the two running sums of u^2 and
        the trace forms' Grams x'Fx: `current.half_rows` entries."""
        m = current.maps.shape[1]
        half = np.empty((current.half_rows, rows.shape[0]))
        z, uu1, own = current.split(half)
        np.matmul(current.maps, rows.T, out=z)
        np.add(1.0, self._ends @ (z[:m] * z[:m]), out=uu1)
        if self.config.is_trace_family:
            np.sum(self._trace_forms @ z[m:] * z[m:], axis=1, out=own)
        return half

    def screen_moves(self, current: CurrentDesign | None, runs, moves,
                     pe_df: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
        """Approximate log objectives of replacing run runs[c] of `current` by move c.

        `runs` gives the run each move replaces (one index serves every
        move) and `pe_df` the pure-error df of each resulting design. Move c
        moves in W-row moves[c]; with a `table` (:meth:`candidate_half` of a
        list of W-rows), list row moves[c], or c if `moves` is None. It changes G to
        L(I + u u' - y y')L' with u = L^-1 w_c and y = L^-1 w_i, i = runs[c],
        and every component is read from that rank-two form without a
        factorisation, so moves of different runs stack in one call.

        The values rank moves and agree with :meth:`factor_objective` to
        rounding. An entry is +inf where the design certainly scores +inf (no
        pure error under a positive quantile-bearing weight) and NaN where it
        must be scored exactly: no usable current factor, a pivot ratio at or
        below its limit (a failed downdate among them), or a non-finite
        screened value. When the current design's theta certifies every move
        of a block, its ratios are not formed; the values are the same either
        way.
        """
        if current is None or not pe_df.size:  # no usable factor, or no moves
            out = np.full(pe_df.size, np.nan)
        else:
            per_move = isinstance(runs, np.ndarray)  # else one run for every move
            chunk = max(1, SCREEN_CHUNK // current.half_rows)
            blocks = []
            for lo in range(0, pe_df.size, chunk):
                block = slice(lo, lo + chunk)
                half = (self.candidate_half(current, moves[block]) if table is None
                        else table[:, block if moves is None else moves[block]])
                ok, terms = self._moved_terms(current, runs[block] if per_move else runs, half)
                value = self._combine(self._component_logs(terms, pe_df[block],
                                                           self._weighted)[:3])
                blocks.append(np.where(ok & np.isfinite(value), value, np.nan))
            out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        if self._needs_pure_error:
            out[pe_df == 0] = np.inf
        return out

    def _moved_terms(self, current: CurrentDesign, runs, half: np.ndarray):
        """(ok, terms) of each move: whether it may be screened, and its _Terms.

        The run half: move c reads column c of `half` (:meth:`candidate_half`)
        and its run's y and down (one run's column broadcasts).
        With U = [u y] after the intercept, sweeping the intercept out of
        I + u u' - y y' leaves I + U Sigma U' on S's scale, with
        Sigma = [[1 - 1/n, 1/n], [1/n, -1 - 1/n]]. Its leading blocks have
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
        (1 + a)(1 - c) >= down[-1]. Only a call with a move whose rho is not
        above `current.theta` forms every d_j, from u and y.
        """
        n, m = current.n, current.maps.shape[1]
        z, uu1, own = current.split(half)
        cols = runs if isinstance(runs, np.ndarray) else slice(runs, runs + 1)
        zi, down, _ = current.split(current.per_run[:, cols])
        u, y = z[:m], zi[:m]
        uy = self._ends @ (u * y)
        d = uu1 * down + uy * uy
        ok = (down[-1] > current.theta * uu1[-1]).all()
        if not ok:
            # a failed downdate (the first d_j <= 0, or a few ulps for an exactly
            # singular move) gives a ratio below every limit, or NaN
            uy_j = self._tri @ (u * y)
            d_j = (1.0 + self._tri @ (u * u)) * (1.0 - self._tri @ (y * y)) + uy_j * uy_j
            ok = (d_j[1:] / d_j[:-1] > current.limits).all(axis=0)
        t, need = current.terms, self._weighted
        lof, bias = need[1] and self.q, need[2] and self.q
        if self.config.is_trace_family:
            # M^-1, (R + I/tau2)^-1 and A1 = M^-1 Z move to M^-1 - V1 X1 V1',
            # (S^-1)_22 - V2 X V2' and A1 + V1 X1 E', with V1 = L11^-T U1,
            # V2 = L22^-T U2 and E = L22 U2; the 2 x 2 Grams G of the forms
            # read U'(form)U for each move (the forms are symmetric)
            forms_i = self._trace_forms @ zi[m:]
            G = _symmetric(own, (forms_i * z[m:]).sum(axis=1), (forms_i * zi[m:]).sum(axis=1))
            X = _symmetric(down, uy, -uu1) / d[..., None, None]
            drop = (X * G[:2]).sum(axis=(2, 3))
            alias = (t.bias + (X[0] * G[3] + X[0] @ G[0] @ X[0] * G[2]).sum(axis=(1, 2))
                     if bias else None)
            return ok, _Terms(t.m - drop[0], t.r - drop[1] if lof else None, alias)
        log_d1 = np.log(d[0])
        log_det_r = t.r + np.log(d[-1]) - log_d1 if lof else None
        quad = None
        if bias:
            # b'Cb moves to b'Cb + beta' Sigma beta - kappa' X1 kappa, with
            # kappa = U2'L22'b and beta = U1'L21'b + kappa, per draw b
            B = (z.shape[0] - m) // 2
            beta, beta_i = z[m:m + B], zi[m:m + B]
            kappa, kappa_i = z[m + B:], zi[m + B:]
            # both 2 x 2 forms written out and updated in place: the (draws, moves)
            # arrays are the cost
            quad = beta * ((1.0 - 1.0 / n) * beta + (2.0 / n) * beta_i)
            quad -= (1.0 + 1.0 / n) * beta_i * beta_i
            quad -= kappa * (down[0] / d[0] * kappa + 2.0 * uy[0] / d[0] * kappa_i)
            quad += uu1[0] / d[0] * kappa_i * kappa_i
            quad += t.bias.T
            quad = quad.T
        return ok, _Terms(t.m + log_d1, log_det_r, quad)


def compound_objective(design: Design, spec: "ExperimentSpec",
                       prior: PriorSample | None = None) -> CriterionBreakdown:
    """Full per-component breakdown of a design under the spec's criterion."""
    X1, X2 = model_matrices(design, spec.primary, spec.potential, spec.grid)
    _, pe_df, lof_df = treatment_counts(treatment_labels(design.settings, spec.grid), spec.p)
    evaluator = CriterionEvaluator.from_spec(spec, n_runs=design.n)
    return evaluator.breakdown(X1, X2, pe_df, lof_df, prior)


def efficiency(reference: float, value: float) -> float | None:
    """100 * reference / value; 0 for an infinite value, None (blank) for 0."""
    if math.isnan(value) or math.isnan(reference) or reference == math.inf:
        return None
    if value == math.inf:
        return 0.0
    if value == 0.0:
        return None
    return 100.0 * reference / value
