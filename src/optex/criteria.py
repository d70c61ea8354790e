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

One kernel computes every component. Its input is a stack of lower Cholesky
factors L of the ridged information matrix

    S = [[M, Z], [Z', X2'(I - J/n)X2 + I_q/tau2]],

which is the Gram matrix of W = [1 | X1 | X2] plus I/tau2 on the potential
block, with the intercept swept out. The blocks of L hold everything:
log|M| from diag L11, log|R + I/tau2| from diag L22, C = Z'M^-1Z = L21 L21',
the alias matrix A1 = M^-1 Z = L11^-T L21', and the trace family's weighted
diagonals from the inverted triangles L11 and L22. The move screen passes
it many factors at once, the exact objective one.

SPD_TOL is applied per block. A pivot of the M block at or below SPD_TOL
times the largest diagonal entry of M makes every component +inf; a pivot of
the potential block, against the largest diagonal entry of R + I/tau2, makes
only the LoF component +inf. Designs without pure-error degrees of freedom
are +inf on the quantile-bearing components. None of these are errors, so
exchange searches can score arbitrary candidate designs. Everything is
combined in the log domain.

:meth:`CriterionEvaluator.screen_moves` ranks many one-run replacements at
once; :meth:`CriterionEvaluator.log_objective` stays the one definition of an
objective value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import Design, FactorGrid, TermSet, model_matrices, replication_summary
from .numeric import PriorSample, SPD_TOL, f_quantile_table, spd_logdet_inverse

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import ExperimentSpec

FAMILIES = ("MSE.D", "MSE.P", "MSE.L")

# A screened move whose pivot lies within this factor of the SPD_TOL
# singularity rule is scored exactly instead.
PIVOT_MARGIN = 1e4
# Moves factored per stacked Cholesky call; bounds the screen's memory.
SCREEN_CHUNK = 256

DET_COMPONENT_NAMES = ("DP", "LoF-DP", "MSE(D)")
TRACE_COMPONENT_NAMES = ("LP", "LoF-LP", "MSE(L)")


@dataclass(frozen=True)
class CriterionConfig:
    """Compound-criterion choice: family, weights, and the shared tunables."""

    family: str = "MSE.D"
    kappa: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    tau2: float = 1.0
    alpha: float = 0.05
    alpha_lof: float = 0.05
    mc_samples: int = 50

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"criterion family must be one of {FAMILIES}, got {self.family!r}")
        if len(self.kappa) != 3 or any(k < 0 for k in self.kappa):
            raise ValueError("kappa must be three non-negative weights")
        if abs(sum(self.kappa) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if self.tau2 <= 0:
            raise ValueError("tau2 must be positive")
        for name in ("alpha", "alpha_lof"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1)")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    @property
    def is_trace_family(self) -> bool:
        return self.family == "MSE.L"

    def component_names(self) -> tuple[str, str, str]:
        return TRACE_COMPONENT_NAMES if self.is_trace_family else DET_COMPONENT_NAMES


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
        return math.exp(self.log_compound) if self.log_compound != math.inf else math.inf


def _pivots_ok(L: np.ndarray, p: int, margin: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Whether the M block and the potential block of each factor in a stack pass.

    A block passes when its smallest squared pivot exceeds margin * SPD_TOL
    times the largest diagonal entry of the matrix it factors (the squared
    row norms of its triangle). An empty potential block passes.
    """
    pivots = np.diagonal(L, axis1=1, axis2=2) ** 2
    bound = margin * SPD_TOL

    def scale(block):
        return np.einsum("cij,cij->ci", block, block).max(axis=1, initial=0.0)

    m_ok = pivots[:, :p].min(axis=1) > bound * scale(L[:, :p, :p])
    r_ok = pivots[:, p:].min(axis=1, initial=np.inf) > bound * scale(L[:, p:, p:])
    return m_ok, r_ok


def information_factor(X1: np.ndarray, X2: np.ndarray,
                       ridge: float) -> tuple[np.ndarray | None, bool]:
    """One Cholesky factor of the design's ridged information matrix S.

    Returns (L, potential_ok). L is None when the M block fails the SPD_TOL
    rule. potential_ok is False when the potential block fails it; if the
    joint factorisation itself failed, the M block is factored alone and L's
    potential block is the identity, so DP and MSE stay readable.
    """
    p, q = X1.shape[1], X2.shape[1]
    X = np.hstack([X1, X2])
    s = X.sum(axis=0)
    S = X.T @ X - np.outer(s, s) / X.shape[0]  # the factorisation reads its lower triangle
    S[p:, p:] += ridge * np.eye(q)
    potential_ok = True
    L = spd_logdet_inverse(S, tol=0.0)
    if L is None:
        L11 = spd_logdet_inverse(S[:p, :p], tol=0.0)
        if L11 is None:
            return None, False
        L = np.eye(p + q)
        L[:p, :p] = L11
        L[p:, :p] = (np.linalg.inv(L11) @ S[:p, p:]).T
        potential_ok = False
    m_ok, r_ok = _pivots_ok(L[None], p)
    if not m_ok[0]:
        return None, False
    return L, potential_ok and bool(r_ok[0])


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


class CriterionEvaluator:
    """Shared, precomputed state for scoring many designs under one spec.

    The search ranks moves with :meth:`screen_moves` and scores the ones it
    may accept with :meth:`log_objective`; reports call :meth:`breakdown`
    with ``weighted_only=False`` to also evaluate zero-weight components.
    All of them read the components from :meth:`_log_components`.
    """

    def __init__(self, grid: FactorGrid, primary: TermSet, potential: TermSet,
                 n_runs: int, config: CriterionConfig):
        self.grid = grid
        self.primary = primary
        self.potential = potential
        self.config = config
        self.n_runs = n_runs
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
        # A positively weighted quantile-bearing component makes every
        # design without pure error +inf, whatever its matrices.
        k1, k2, _ = self.kappa
        self._needs_pure_error = k1 > 0 or (k2 > 0 and self.q > 0)

    @classmethod
    def from_spec(cls, spec: "ExperimentSpec", n_runs: int | None = None) -> "CriterionEvaluator":
        return cls(spec.grid, spec.primary, spec.potential,
                   spec.n_runs if n_runs is None else n_runs, spec.criterion)

    # -- the components kernel ------------------------------------------------

    def _log_components(self, L, pe_df, prior, need):
        """Log DP/LP, LoF and MSE values and the log base of each factor in a stack.

        `L` is a (C, p+q, p+q) stack of factors of S, `pe_df` the pure-error
        df of each design. Components not in `need` are NaN.
        """
        p, q = self.p, self.q
        L11, L21, L22 = L[:, :p, :p], L[:, p:, :p], L[:, p:, p:]
        log1 = log3 = np.full(L.shape[0], np.nan)
        # without potential terms the LoF component is neutral (1)
        log2 = np.zeros(L.shape[0]) if need[1] and not q else log1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.config.is_trace_family:
                L11_inv = np.linalg.inv(L11)
                base = _weighted_inverse_diag(L11_inv, self.w1)
                if need[0]:
                    log1 = np.log(self._fq_primary[pe_df] * base)
                if need[1] and q:
                    lof = _weighted_inverse_diag(np.linalg.inv(L22), self.w2)
                    log2 = np.log(self._fq_lof[pe_df] * lof)
                if need[2]:
                    mse = base
                    if q:
                        A1 = _alias(L11_inv, L21)
                        mse = base + self.config.tau2 * (
                            np.einsum("cjr,cjr->cj", A1, A1) @ self.w1)
                    log3 = np.log(mse)
                log_base = np.log(base)
            else:
                diag = np.diagonal(L, axis1=1, axis2=2)
                log_base = -2.0 * np.log(diag[:, :p]).sum(axis=1) / p  # log |M^-1|^(1/p)
                if need[0]:
                    log1 = np.log(self._fq_primary[pe_df]) + log_base
                if need[1] and q:
                    logdet_r = 2.0 * np.log(diag[:, p:]).sum(axis=1)  # log |R + I/tau2|
                    log2 = np.log(self._fq_lof[pe_df]) - logdet_r / q
                if need[2]:
                    log3 = log_base + self._log_bias(L21, prior) / p
        return log1, log2, log3, log_base

    def _log_bias(self, L21, prior):
        """log(1 + b'Cb) with C = Z'M^-1Z = L21 L21', averaged over prior draws (MSE.D)
        or at the point prior b = tau * 1_q (MSE.P)."""
        if self.q == 0:
            return 0.0
        if self.config.family == "MSE.D":
            if prior is None:
                raise ValueError("MSE.D evaluation needs a PriorSample")
            proj = np.einsum("bq,cqp->cbp", prior.draws, L21)
            quad = np.einsum("cbp,cbp->cb", proj, proj)
            return np.log1p(quad).mean(axis=1)
        z = L21.sum(axis=1)
        return np.log1p(self.config.tau2 * np.einsum("cp,cp->c", z, z))

    def _exact_logs(self, X1, X2, pe_df, prior, need):
        """The kernel on one factor of the design's own S: (log1, log2, log3, log base)."""
        L, potential_ok = information_factor(X1, X2, 1.0 / self.config.tau2)
        if L is None:
            # M fails the SPD rule: every component of either family is +inf
            return math.inf, math.inf, math.inf, math.inf
        logs = [float(v[0]) for v in
                self._log_components(L[None], np.array([pe_df]), prior, need)]
        if not potential_ok and need[1]:
            logs[1] = math.inf
        return tuple(logs)

    def _combine(self, logs) -> float:
        return sum(k * v for k, v in zip(self.kappa, logs) if k > 0)

    # -- design-level entry points ------------------------------------------

    def breakdown(self, design: Design, prior: PriorSample | None = None,
                  weighted_only: bool = False) -> CriterionBreakdown:
        X1, X2 = model_matrices(design, self.primary, self.potential, self.grid)
        reps = replication_summary(design, self.grid, self.p)
        return self.breakdown_from_matrices(X1, X2, reps.pe_df, reps.lof_df, prior,
                                            weighted_only=weighted_only)

    def breakdown_from_matrices(self, X1: np.ndarray, X2: np.ndarray, pe_df: int,
                                lof_df: int = 0, prior: PriorSample | None = None,
                                weighted_only: bool = False) -> CriterionBreakdown:
        need = self._weighted if weighted_only else (True, True, True)
        *logs, log_base = self._exact_logs(X1, X2, pe_df, prior, need)
        phi1, phi2, phi3 = (math.exp(v) for v in logs)
        return CriterionBreakdown(
            phi_primary=phi1, phi_lof=phi2, phi_mse=phi3, phi_base=math.exp(log_base),
            pe_df=pe_df, lof_df=lof_df, log_compound=self._combine(logs),
        )

    def log_objective(self, X1, X2, pe_df, prior=None) -> float:
        return self._combine(self._exact_logs(X1, X2, pe_df, prior, self._weighted)[:3])

    # -- batched move screen ------------------------------------------------

    def screen_moves(self, gram: np.ndarray, rows: np.ndarray, pe_df: np.ndarray,
                     prior: PriorSample | None = None) -> np.ndarray:
        """Approximate log objectives of adding each of `rows` to a design.

        `gram` is the (m, m) Gram matrix of W = [1 | X1 | X2] over the runs
        that stay, `rows` the (C, m) W-rows of the candidate runs and `pe_df`
        the pure-error df of each resulting design. Move c is factored as one
        Cholesky factor of gram + w_c w_c' + diag(0, 0, I_q/tau2); its block
        after the intercept factors that design's S and goes to the kernel.

        The values rank moves and agree with :meth:`log_objective` to
        rounding. An entry is +inf where the design certainly scores +inf (no
        pure error under a positive quantile-bearing weight) and NaN where it
        must be scored exactly: a non-positive-definite chunk, a pivot near
        the singularity rule, or a non-finite screened value.
        """
        gram = gram.copy()
        gram[self.p + 1:, self.p + 1:] += np.eye(self.q) / self.config.tau2
        out = np.empty(rows.shape[0])
        for lo in range(0, rows.shape[0], SCREEN_CHUNK):
            hi = lo + SCREEN_CHUNK
            out[lo:hi] = self._screen_chunk(gram, rows[lo:hi], pe_df[lo:hi], prior)
        out[~np.isfinite(out)] = np.nan
        if self._needs_pure_error:
            out[pe_df == 0] = np.inf
        return out

    def _screen_chunk(self, gram, rows, pe_df, prior):
        A = rows[:, :, None] * rows[:, None, :]
        A += gram
        try:
            L = np.linalg.cholesky(A)[:, 1:, 1:]
        except np.linalg.LinAlgError:
            return np.full(rows.shape[0], np.nan)
        m_ok, r_ok = _pivots_ok(L, self.p, PIVOT_MARGIN)
        total = self._combine(self._log_components(L, pe_df, prior, self._weighted)[:3])
        total[~(m_ok & r_ok)] = np.nan
        return total


def compound_objective(design: Design, spec: "ExperimentSpec",
                       prior: PriorSample | None = None) -> CriterionBreakdown:
    """Full per-component breakdown of a design under the spec's criterion."""
    evaluator = CriterionEvaluator.from_spec(spec, n_runs=design.n)
    return evaluator.breakdown(design, prior=prior, weighted_only=False)


def efficiency(reference: float, value: float) -> float | None:
    """100 * reference / value; 0 for an infinite value, None (blank) for 0."""
    if math.isnan(value) or math.isnan(reference) or reference == math.inf:
        return None
    if value == math.inf:
        return 0.0
    if value == 0.0:
        return None
    return 100.0 * reference / value


def efficiency_report(breakdowns: list[CriterionBreakdown],
                      reference: tuple[float, float, float]) -> list[dict]:
    """Efficiency percentages of each design against per-criterion best values.

    ``reference`` holds the (phi_primary, phi_lof, phi_mse) values of the
    designs found under the three pure criteria (unit-vector weights).
    """
    ref1, ref2, ref3 = reference
    rows = []
    for b in breakdowns:
        rows.append({
            "eff_primary": efficiency(ref1, b.phi_primary),
            "eff_lof": efficiency(ref2, b.phi_lof),
            "eff_mse": efficiency(ref3, b.phi_mse),
            "pe_df": b.pe_df,
            "lof_df": b.lof_df,
        })
    return rows
