"""The SPD factorisation, F-distribution quantiles, and reproducible prior sampling.

Random draws use numpy's Philox (a counter-based generator keyed by the seed)
and the inverse-CDF normal transform (scipy's ndtri), so a (seed, B, q, tau2)
tuple always regenerates identical draws within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

SPD_TOL = 1e-10


def spd_logdet_inverse(A: np.ndarray, tol: float = SPD_TOL) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric matrix; None when any pivot <= tol * max diagonal.

    With ``tol=0`` only a failed factorisation gives None, and the caller
    applies its own pivot rule to the factor. The search treats None (a
    collapsed information matrix) as an infinitely bad design, not an error.
    """
    try:
        lower = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    # NaN pivots fail the comparison too
    if not np.diag(lower).min(initial=np.inf) ** 2 > tol * np.diag(A).max(initial=0.0):
        return None
    return lower


def f_quantile(df1: int, df2: int, prob: float) -> float:
    """x with P(F_{df1,df2} <= x) = prob: the df2 entry of :func:`f_quantile_table`."""
    if df1 < 1 or df2 < 1:
        raise ValueError("f_quantile needs df1 >= 1 and df2 >= 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    return float(f_quantile_table(df1, df2, prob)[df2])


def f_quantile_table(df1: int, max_df2: int, prob: float) -> np.ndarray:
    """Quantiles indexed by df2 = 0..max_df2; entry 0 is +inf (no pure error).

    Uses the identity CDF_F(x) = I_{df1 x / (df1 x + df2)}(df1/2, df2/2),
    inverted with scipy's betaincinv.
    """
    out = np.full(max_df2 + 1, np.inf)
    if max_df2 >= 1:
        d = np.arange(1, max_df2 + 1, dtype=float)
        y = special.betaincinv(df1 / 2.0, d / 2.0, prob)
        out[1:] = d * y / (df1 * (1.0 - y))
    return out


@dataclass(frozen=True)
class PriorSample:
    """B draws of the q potential coefficients from N(0, tau2 * I_q)."""

    draws: np.ndarray
    seed: int
    tau2: float

    def __post_init__(self):
        arr = np.asarray(self.draws, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "draws", arr)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def q(self) -> int:
        return self.draws.shape[1]


def sample_prior(q: int, tau2: float, n_draws: int, seed: int) -> PriorSample:
    """Draw n_draws iid N(0, tau2 * I_q) vectors, bit-reproducibly for a seed.

    Philox uniforms on the open interval (0, 1) are pushed through the
    inverse normal CDF and scaled by sqrt(tau2).
    """
    if q < 1 or n_draws < 1:
        raise ValueError("sample_prior needs q >= 1 and n_draws >= 1")
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.integers(1, 1 << 53, size=(n_draws, q)).astype(float) / float(1 << 53)
    draws = np.sqrt(tau2) * special.ndtri(u)
    return PriorSample(draws=draws, seed=int(seed), tau2=float(tau2))
