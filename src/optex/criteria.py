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
percentages. The standalone phi_* functions below keep the raw determinant
forms. Trace-family values are plain weighted traces.

Everything is combined in the log domain. Singular information matrices and
designs without pure-error degrees of freedom map to +inf, never to errors,
so exchange searches can score arbitrary candidate designs.

:meth:`CriterionEvaluator.screen_moves` scores many one-run replacements at
once from one stacked Cholesky factor per move. Its values only rank moves;
:meth:`CriterionEvaluator.log_objective` stays the one definition of an
objective value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    Design,
    FactorGrid,
    TermSet,
    monomial_matrix,
    treatment_labels,
)
from .numeric import (
    PriorSample,
    SpdFactor,
    centered_info,
    SPD_TOL,
    f_quantile_table,
    spd_logdet_inverse,
)

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import ExperimentSpec

FAMILIES = ("MSE.D", "MSE.P", "MSE.L")

# A screened move whose information-matrix pivot lies within this factor of
# the SPD_TOL singularity rule is scored exactly instead.
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


def _safe_log(x: float) -> float:
    if x == 0.0:
        return -math.inf
    if x == math.inf:
        return math.inf
    return math.log(x)


def phi_ds(M: np.ndarray) -> float:
    """Determinant criterion |M^-1|; +inf when M is singular."""
    fac = spd_logdet_inverse(M)
    return math.inf if fac is None else math.exp(-fac.logdet)


def phi_l(M: np.ndarray, weights: np.ndarray) -> float:
    """Weighted-trace criterion sum_j w_j (M^-1)_jj; +inf when singular."""
    fac = spd_logdet_inverse(M)
    if fac is None:
        return math.inf
    return float(np.asarray(weights) @ np.diag(fac.inverse()))


def phi_dp(phi_ds_value: float, p: int, pe_df: int, alpha: float) -> float:
    """Determinant criterion inflated by F_{p, pe_df; 1-alpha}^p."""
    if pe_df == 0:
        return math.inf
    quant = float(f_quantile_table(p, pe_df, 1.0 - alpha)[pe_df])
    return quant**p * phi_ds_value


def phi_lp(phi_l_value: float, pe_df: int, alpha: float) -> float:
    """Trace criterion inflated by F_{1, pe_df; 1-alpha}."""
    if pe_df == 0:
        return math.inf
    quant = float(f_quantile_table(1, pe_df, 1.0 - alpha)[pe_df])
    return quant * phi_l_value


def residual_potential_gram(X1: np.ndarray, X2: np.ndarray) -> np.ndarray | None:
    """R = X2' (I - X(X'X)^-1 X') X2 with X = [1 | X1]; None when X'X is singular."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    n, p = X1.shape
    q = X2.shape[1]
    if q == 0:
        return np.zeros((0, 0))
    s1 = X1.sum(axis=0)
    s2 = X2.sum(axis=0)
    XtX = np.empty((p + 1, p + 1))
    XtX[0, 0] = n
    XtX[0, 1:] = s1
    XtX[1:, 0] = s1
    XtX[1:, 1:] = X1.T @ X1
    XtX2 = np.vstack([s2, X1.T @ X2])
    fac = spd_logdet_inverse(XtX)
    if fac is None:
        return None
    R = X2.T @ X2 - XtX2.T @ fac.solve(XtX2)
    return 0.5 * (R + R.T)


def phi_lof_dp(R: np.ndarray | None, q: int, pe_df: int, alpha_lof: float,
               tau2: float) -> float:
    """Lack-of-fit determinant component |R + I_q/tau2|^-1 * F_{q,pe_df;1-a_L}^q."""
    if q == 0:
        return 1.0
    if R is None:
        return math.inf
    if pe_df == 0:
        return math.inf
    fac = spd_logdet_inverse(np.asarray(R) + np.eye(q) / tau2)
    if fac is None:
        return math.inf
    quant = float(f_quantile_table(q, pe_df, 1.0 - alpha_lof)[pe_df])
    return math.exp(q * math.log(quant) - fac.logdet)


def phi_lof_lp(R: np.ndarray | None, potential_weights: np.ndarray, pe_df: int,
               alpha_lof: float, tau2: float) -> float:
    """Lack-of-fit trace component: F_{1,pe_df;1-a_L} * weighted trace of (R + I/tau2)^-1."""
    if R is None:
        return math.inf
    q = R.shape[0]
    if q == 0:
        return 1.0
    if pe_df == 0:
        return math.inf
    fac = spd_logdet_inverse(np.asarray(R) + np.eye(q) / tau2)
    if fac is None:
        return math.inf
    quant = float(f_quantile_table(1, pe_df, 1.0 - alpha_lof)[pe_df])
    return quant * float(np.asarray(potential_weights) @ np.diag(fac.inverse()))


def centered_cross(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Z = X1' (I - J/n) X2, the cross-product after sweeping out the mean."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    n = X1.shape[0]
    return X1.T @ X2 - np.outer(X1.sum(axis=0), X2.sum(axis=0)) / n


def alias_matrix(X1: np.ndarray, X2: np.ndarray) -> np.ndarray | None:
    """A1 = M^-1 X1'(I - J/n)X2: bias transmitted from omitted potential terms."""
    fac = spd_logdet_inverse(centered_info(X1))
    if fac is None:
        return None
    return fac.solve(centered_cross(X1, X2))


def _mse_log_bias_mc(fac_M: SpdFactor, Z: np.ndarray, draws: np.ndarray) -> float:
    """Monte Carlo average of log(1 + b' Z'M^-1Z b) over prior draws b."""
    if Z.shape[1] == 0:
        return 0.0
    C = Z.T @ fac_M.solve(Z)
    quad = np.einsum("bq,bq->b", draws @ C, draws)
    # quad is a PSD quadratic form; the floor only absorbs rounding noise
    return float(np.mean(np.log1p(np.maximum(quad, 0.0))))


def _mse_log_bias_point(fac_M: SpdFactor, Z: np.ndarray, tau2: float) -> float:
    """log(1 + tau2 * 1' Z'M^-1Z 1): point prior one sd from the prior mean."""
    if Z.shape[1] == 0:
        return 0.0
    z = Z.sum(axis=1)
    quad = float(z @ fac_M.solve(z))
    return math.log1p(tau2 * max(quad, 0.0))


def phi_mse_d_mc(M: np.ndarray, X1: np.ndarray, X2: np.ndarray,
                 prior: PriorSample) -> float:
    """MSE determinant component, Monte Carlo averaged (sigma^2 terms dropped)."""
    fac = spd_logdet_inverse(M)
    if fac is None:
        return math.inf
    return math.exp(-fac.logdet + _mse_log_bias_mc(fac, centered_cross(X1, X2), prior.draws))


def phi_mse_d_point(M: np.ndarray, X1: np.ndarray, X2: np.ndarray,
                    tau2: float) -> float:
    """MSE determinant component at the point prior tau * 1_q."""
    fac = spd_logdet_inverse(M)
    if fac is None:
        return math.inf
    return math.exp(-fac.logdet + _mse_log_bias_point(fac, centered_cross(X1, X2), tau2))


def phi_mse_l(M: np.ndarray, X1: np.ndarray, X2: np.ndarray,
              primary_weights: np.ndarray, tau2: float) -> float:
    """MSE trace component: weighted trace of M^-1 + tau2 * A1 A1'."""
    fac = spd_logdet_inverse(M)
    if fac is None:
        return math.inf
    w = np.asarray(primary_weights)
    base = float(w @ np.diag(fac.inverse()))
    Z = centered_cross(X1, X2)
    if Z.shape[1] == 0:
        return base
    A1 = fac.solve(Z)
    return base + tau2 * float(w @ np.einsum("ij,ij->i", A1, A1))


class CriterionEvaluator:
    """Shared, precomputed state for scoring many designs under one spec.

    The search ranks moves with :meth:`screen_moves` and scores the ones it
    may accept with :meth:`log_objective`; reports call
    :meth:`breakdown_from_matrices` with ``weighted_only=False`` to also
    evaluate zero-weight components. Both of those run the same formulas.
    """

    def __init__(self, grid: FactorGrid, primary: TermSet, potential: TermSet,
                 n_runs: int, config: CriterionConfig):
        self.grid = grid
        self.config = config
        self.n_runs = n_runs
        self.p = len(primary)
        self.q = len(potential)
        self.exps1 = primary.exponent_matrix()
        self.exps2 = potential.exponent_matrix()
        self.w1 = primary.weights()
        self.w2 = potential.weights()
        self.kappa = config.kappa
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

    # -- component assembly -------------------------------------------------

    def breakdown_from_matrices(self, X1: np.ndarray, X2: np.ndarray, pe_df: int,
                                lof_df: int, prior: PriorSample | None = None,
                                weighted_only: bool = False) -> CriterionBreakdown:
        k1, k2, k3 = self.kappa
        need1 = k1 > 0 or not weighted_only
        need2 = k2 > 0 or not weighted_only
        need3 = k3 > 0 or not weighted_only

        n = X1.shape[0]
        s1 = X1.sum(axis=0)
        G1 = X1.T @ X1
        M = G1 - np.outer(s1, s1) / n
        M = 0.5 * (M + M.T)
        fac_M = spd_logdet_inverse(M)

        phi1 = phi2 = phi3 = base = math.nan
        log1 = log2 = log3 = math.nan

        if fac_M is None:
            # Rank-deficient [1 | X1]: every component of either family is +inf.
            phi1 = phi2 = phi3 = base = math.inf
            log1 = log2 = log3 = math.inf
        elif self.config.is_trace_family:
            base = float(self.w1 @ np.diag(fac_M.inverse()))
            if need1:
                phi1 = math.inf if pe_df == 0 else float(self._fq_primary[pe_df]) * base
                log1 = _safe_log(phi1)
            if need2:
                phi2 = self._lof_lp(X1, X2, s1, G1, n, pe_df)
                log2 = _safe_log(phi2)
            if need3:
                phi3 = base
                if self.q > 0:
                    Z = X1.T @ X2 - np.outer(s1, X2.sum(axis=0)) / n
                    A1 = fac_M.solve(Z)
                    phi3 = base + self.config.tau2 * float(
                        self.w1 @ np.einsum("ij,ij->i", A1, A1))
                log3 = _safe_log(phi3)
        else:
            log_ds = -fac_M.logdet / self.p
            base = math.exp(log_ds)
            if need1:
                if pe_df == 0:
                    phi1, log1 = math.inf, math.inf
                else:
                    log1 = math.log(float(self._fq_primary[pe_df])) + log_ds
                    phi1 = math.exp(log1)
            if need2:
                log2 = self._lof_dp_log(X1, X2, s1, G1, n, pe_df)
                phi2 = math.exp(log2) if log2 != math.inf else math.inf
            if need3:
                if self.q == 0:
                    log3, phi3 = log_ds, base
                else:
                    Z = X1.T @ X2 - np.outer(s1, X2.sum(axis=0)) / n
                    if self.config.family == "MSE.D":
                        if prior is None:
                            raise ValueError("MSE.D evaluation needs a PriorSample")
                        log3 = log_ds + _mse_log_bias_mc(fac_M, Z, prior.draws) / self.p
                    else:
                        log3 = log_ds + _mse_log_bias_point(fac_M, Z, self.config.tau2) / self.p
                    phi3 = math.exp(log3)

        parts = [(k1, log1), (k2, log2), (k3, log3)]
        log_compound = 0.0
        for kap, logphi in parts:
            if kap > 0:
                log_compound += kap * logphi
        return CriterionBreakdown(
            phi_primary=phi1, phi_lof=phi2, phi_mse=phi3, phi_base=base,
            pe_df=pe_df, lof_df=lof_df, log_compound=log_compound,
        )

    def _residual_gram(self, X1, X2, s1, G1, n):
        if self.q == 0:
            return np.zeros((0, 0))
        p = self.p
        s2 = X2.sum(axis=0)
        XtX = np.empty((p + 1, p + 1))
        XtX[0, 0] = n
        XtX[0, 1:] = s1
        XtX[1:, 0] = s1
        XtX[1:, 1:] = G1
        fac = spd_logdet_inverse(XtX)
        if fac is None:
            return None
        XtX2 = np.vstack([s2, X1.T @ X2])
        R = X2.T @ X2 - XtX2.T @ fac.solve(XtX2)
        return 0.5 * (R + R.T)

    def _lof_dp_log(self, X1, X2, s1, G1, n, pe_df):
        if self.q == 0:
            return 0.0
        if pe_df == 0:
            return math.inf
        R = self._residual_gram(X1, X2, s1, G1, n)
        if R is None:
            return math.inf
        fac = spd_logdet_inverse(R + np.eye(self.q) / self.config.tau2)
        if fac is None:
            return math.inf
        return math.log(float(self._fq_lof[pe_df])) - fac.logdet / self.q

    def _lof_lp(self, X1, X2, s1, G1, n, pe_df):
        if self.q == 0:
            return 1.0
        if pe_df == 0:
            return math.inf
        R = self._residual_gram(X1, X2, s1, G1, n)
        if R is None:
            return math.inf
        fac = spd_logdet_inverse(R + np.eye(self.q) / self.config.tau2)
        if fac is None:
            return math.inf
        return float(self._fq_lof[pe_df]) * float(self.w2 @ np.diag(fac.inverse()))

    # -- design-level entry points ------------------------------------------

    def breakdown(self, design: Design, prior: PriorSample | None = None,
                  weighted_only: bool = False) -> CriterionBreakdown:
        values = self.grid.value_columns(design.settings)
        X1 = monomial_matrix(values, self.exps1)
        X2 = monomial_matrix(values, self.exps2)
        labels = treatment_labels(design.settings, self.grid)
        t = int(np.unique(labels).size)
        pe_df = design.n - t
        lof_df = max(t - self.p - 1, 0)
        return self.breakdown_from_matrices(X1, X2, pe_df, lof_df, prior,
                                            weighted_only=weighted_only)

    def log_objective(self, X1, X2, pe_df, prior=None) -> float:
        return self.breakdown_from_matrices(X1, X2, pe_df, 0, prior,
                                            weighted_only=True).log_compound

    # -- batched move screen ------------------------------------------------

    def screen_moves(self, gram: np.ndarray, rows: np.ndarray, pe_df: np.ndarray,
                     prior: PriorSample | None = None) -> np.ndarray:
        """Approximate log objectives of adding each of `rows` to a design.

        `gram` is the (m, m) Gram matrix of W = [1 | X1 | X2] over the runs
        that stay, `rows` the (C, m) W-rows of the candidate runs and `pe_df`
        the pure-error df of each resulting design. Move c is factored as one
        Cholesky L of gram + w_c w_c' + diag(0, 0, I_q/tau2), whose blocks hold
        every component: log|M| from diag L[1:p+1], log|R + I/tau2| from
        diag L[p+1:], and Z'M^-1Z = L21 L21' with L21 = L[p+1:, 1:p+1].

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
        p, q = self.p, self.q
        A = rows[:, :, None] * rows[:, None, :]
        A += gram
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            return np.full(rows.shape[0], np.nan)
        diag = np.diagonal(L, axis1=1, axis2=2)
        piv_m = diag[:, 1:p + 1]
        # The exact path also factors [1 | X1]'[1 | X1], whose largest
        # diagonal entry bounds the pivot rule of both factorisations.
        scale = (np.diagonal(gram)[:p + 1] + rows[:, :p + 1] ** 2).max(axis=1)
        unsafe = (piv_m ** 2).min(axis=1) <= PIVOT_MARGIN * SPD_TOL * scale
        L11 = L[:, 1:p + 1, 1:p + 1]
        L21 = L[:, p + 1:, 1:p + 1]
        L22 = L[:, p + 1:, p + 1:]
        if q:
            r_diag = np.einsum("cij,cij->ci", L22, L22)
            unsafe |= ((diag[:, p + 1:] ** 2).min(axis=1)
                       <= PIVOT_MARGIN * SPD_TOL * r_diag.max(axis=1))
        k1, k2, k3 = self.kappa
        total = np.zeros(rows.shape[0])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.config.is_trace_family:
                L11_inv = np.linalg.inv(L11)
                base = _weighted_inverse_diag(L11_inv, self.w1)
                if k1 > 0:
                    total += k1 * np.log(self._fq_primary[pe_df] * base)
                if k2 > 0 and q:
                    lof = _weighted_inverse_diag(np.linalg.inv(L22), self.w2)
                    total += k2 * np.log(self._fq_lof[pe_df] * lof)
                if k3 > 0:
                    mse = base
                    if q:
                        A1 = np.einsum("ckj,crk->cjr", L11_inv, L21)  # M^-1 Z
                        mse = base + self.config.tau2 * (
                            np.einsum("cjr,cjr->cj", A1, A1) @ self.w1)
                    total += k3 * np.log(mse)
            else:
                log_ds = -2.0 * np.log(piv_m).sum(axis=1) / p
                if k1 > 0:
                    total += k1 * (np.log(self._fq_primary[pe_df]) + log_ds)
                if k2 > 0 and q:
                    logdet_r = 2.0 * np.log(diag[:, p + 1:]).sum(axis=1)
                    total += k2 * (np.log(self._fq_lof[pe_df]) - logdet_r / q)
                if k3 > 0:
                    total += k3 * (log_ds + self._screen_log_bias(L21, prior) / p)
        total[unsafe] = np.nan
        return total

    def _screen_log_bias(self, L21, prior):
        """Batched log(1 + b'Cb) with C = Z'M^-1Z = L21 L21' (q x q)."""
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


def _weighted_inverse_diag(L_inv: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j ((L L')^-1)_jj for each factor in a stack of inverted Cholesky factors."""
    return np.einsum("ckj,ckj->cj", L_inv, L_inv) @ weights


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
