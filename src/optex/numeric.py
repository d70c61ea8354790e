"""The SPD factorisation, F-distribution quantiles, and reproducible prior sampling.

F quantiles are computed here with numpy alone. The regularised incomplete
beta function is a Lentz continued fraction, inverted by safeguarded Newton
steps (Cran, Martin & Thomas 1977, AS 109; DiDonato & Morris 1992, ACM TOMS
708).

Prior draws use numpy's Philox (a counter-based generator keyed by the seed)
and the inverse-CDF normal transform, so a (seed, B, q, tau2) tuple always
regenerates identical draws within this implementation. The transform is
scipy's ndtri, which :func:`sample_prior` imports when it is called: an
MSE.D search is the only one that loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TINY = np.finfo(float).tiny


def spd_logdet_inverse(A: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric matrix, or of each of a stack; None when
    any factorisation fails or a pivot is NaN.

    The caller applies its own pivot rule to the factor, and factors a
    failed stack's items one by one. The search treats None (a collapsed
    information matrix) as an infinitely bad design, not an error.
    """
    try:
        lower = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    # pivots are >= 0 or NaN
    return None if math.isnan(np.add.reduce(lower.diagonal(0, -2, -1), None)) else lower


@lru_cache(maxsize=256)
def f_quantile_table(df1: int, max_df2: int, prob: float) -> np.ndarray:
    """Quantiles indexed by df2 = 0..max_df2; entry 0 is +inf (no pure error).

    With d = df2, the quantile x has P(F <= x) = I_y(df1/2, d/2) = prob for
    y = df1 x / (df1 x + d). The table solves the mirrored equation
    I_z(d/2, df1/2) = 1 - prob for z = 1 - y, so that x = d (1 - z) / (df1 z)
    is formed from whichever of y, z was solved for and not from a
    difference near 1. prob = 1 gives +inf throughout. Tables are memoised
    on (df1, max_df2, prob) and returned read-only.
    """
    if df1 < 1 or max_df2 < 0 or not 0.0 < prob <= 1.0:
        raise ValueError("f_quantile_table needs df1 >= 1, max_df2 >= 0 and 0 < prob <= 1")
    out = np.full(max_df2 + 1, np.inf)
    if max_df2 >= 1 and prob < 1.0:
        d = np.arange(1, max_df2 + 1, dtype=float)
        z, y = _beta_root(d / 2.0, np.full(max_df2, df1 / 2.0), 1.0 - prob, prob)
        out[1:] = d * y / (df1 * z)
    out.flags.writeable = False
    return out


_lgamma = np.frompyfunc(math.lgamma, 1, 1)

# Remainder of Stirling's series, lgamma(x) - ((x - 1/2) log x - x + log(2 pi)/2),
# in powers of 1/x^2: B_2k / (2k (2k - 1)). Eight terms reach 1e-16 at x >= 8.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _stirling_tail(x: np.ndarray) -> np.ndarray:
    r, s = 1.0 / (x * x), np.zeros_like(x)
    for c in reversed(_STIRLING):
        s = s * r + c
    return s / x


def _log_beta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log B(a, b) for a, b >= 1/2, elementwise.

    When the larger argument g is 8 or more, lgamma(g) - lgamma(g + s) is taken
    from Stirling's series in the difference form of TOMS 708's algdiv, so
    that two large lgamma values do not cancel (log B(200, 1/2) would
    otherwise lose about 1e-13).
    """
    g, s = np.maximum(a, b), np.minimum(a, b)
    large = g >= 8.0
    out = np.empty_like(g)
    gs, ss = g[~large], s[~large]
    out[~large] = (_lgamma(gs) + _lgamma(ss) - _lgamma(gs + ss)).astype(float)
    gl, sl = g[large], s[large]
    out[large] = (_lgamma(sl).astype(float) - (gl - 0.5) * np.log1p(sl / gl)
                  - sl * np.log(gl + sl) + sl + _stirling_tail(gl) - _stirling_tail(gl + sl))
    return out


def _beta_cf(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Continued fraction h of I_x(a, b) = x^a (1 - x)^b h / (a B(a, b)).

    Modified Lentz evaluation, all entries stepped together; fast for
    x <= (a + 1) / (a + b + 2). An entry is frozen once converged: stepped
    on, its rounding error would random-walk while slower entries finish.
    """
    apb = a + b
    c = np.ones_like(x)
    d = 1.0 / (1.0 - apb * x / (a + 1.0))
    h = d
    active = np.ones(x.shape, dtype=bool)
    for m in range(1, 10_000):
        a2m = a + 2.0 * m
        coef = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 / (1.0 + coef * d)
        c = 1.0 + coef / c
        step = d * c
        coef = -(a + m) * (apb + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 / (1.0 + coef * d)
        c = 1.0 + coef / c
        delta = d * c
        h = np.where(active, h * step * delta, h)
        active &= np.abs(delta - 1.0) > 1e-15
        if not active.any():
            return h
    raise ArithmeticError("incomplete-beta continued fraction did not converge")


def _beta_start(a, b, lower, upper):
    """A starting value for I_x(a, b) = lower (upper = 1 - lower).

    AS 109's normal approximation when a, b >= 1; otherwise the leading
    power-law term of the nearer tail (Press et al., Numerical Recipes, 3rd
    ed., 6.14). Both are a few per cent off, which the Newton steps repair.
    """
    with np.errstate(all="ignore"):
        pp = np.minimum(lower, upper)
        t = np.sqrt(-2.0 * np.log(pp))
        s = t - (2.30753 + 0.27061 * t) / (1.0 + (0.99229 + 0.04481 * t) * t)
        s = np.where(lower < 0.5, s, -s)  # the upper normal quantile of `lower`
        r = (s * s - 3.0) / 6.0
        ia, ib = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (ia + ib)
        w = s * np.sqrt(h + r) / h - (ib - ia) * (r + 5.0 / 6.0 - 2.0 / (3.0 * h))
        normal = a / (a + b * np.exp(2.0 * w))
        ta = np.exp(a * np.log(a / (a + b))) / a
        tb = np.exp(b * np.log(b / (a + b))) / b
        tails = np.where(lower < ta / (ta + tb),
                         (a * (ta + tb) * lower) ** (1.0 / a),
                         1.0 - (b * (ta + tb) * upper) ** (1.0 / b))
        return np.where((a >= 1.0) & (b >= 1.0), normal, tails)


def _beta_root(a, b, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """(x, 1 - x) with I_x(a, b) = lower, elementwise; upper = 1 - lower.

    Whichever of x and 1 - x starts below 1/2 is iterated (on the mirrored
    equation I_{1-x}(b, a) = upper for 1 - x) and the other is formed as
    1 minus it, so both come out to full relative precision. The iteration
    is Newton's with Halley's curvature correction, on the log of the tail
    the continued fraction gives as a function of log x: a power-law tail is
    then a straight line, and nothing underflows. A step that would leave
    the bracket every evaluation narrows is replaced by bisection. All
    entries step together until every step is below 1e-9 relative, which
    the cubic convergence turns into full precision.
    """
    flip = _beta_start(a, b, lower, upper) > 0.5
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    lower, upper = np.where(flip, upper, lower), np.where(flip, lower, upper)
    v = _beta_start(a, b, lower, upper)  # a start for 1 - x near 0 keeps its digits
    v = np.where((v > 0.0) & (v < 1.0), v, 0.5)
    log_lower, log_upper = np.log(lower), np.log(upper)
    log_beta = _log_beta(a, b)
    lo, hi = np.zeros_like(v), np.full_like(v, np.nextafter(1.0, 0.0))
    for _ in range(200):
        w = 1.0 - v
        # the fraction of the tail on v's side of the mean: I_v(a, b) or 1 - I_v(a, b)
        mirror = v * (a + b + 2.0) > a + 1.0
        a_cf = np.where(mirror, b, a)
        h = _beta_cf(np.where(mirror, w, v), a_cf, np.where(mirror, a, b))
        log_tail = a * np.log(v) + b * np.log1p(-v) - log_beta + np.log(h / a_cf)
        gap = np.where(mirror, log_upper - log_tail, log_tail - log_lower)  # rises with v
        lo, hi = np.where(gap < 0.0, v, lo), np.where(gap < 0.0, hi, v)
        slope = a_cf / (w * h)  # d gap / d log v
        newton = gap / slope
        curv = a - (b - 1.0) * v / w + np.where(mirror, slope, -slope)  # gap'' / gap'
        new = v * np.exp(-newton / (1.0 - 0.5 * np.minimum(1.0, newton * curv)))
        new = np.maximum(new, _TINY)  # a root below the normal range stops there
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = (np.abs(new - v) <= 1e-9 * v).all()
        v = new
        if done:
            return np.where(flip, 1.0 - v, v), np.where(flip, v, 1.0 - v)
    raise ArithmeticError("incomplete-beta inversion did not converge")


@dataclass(frozen=True)
class PriorSample:
    """B draws of the q potential coefficients from N(0, tau2 * I_q)."""

    draws: np.ndarray
    seed: int

    def __post_init__(self):
        arr = np.asarray(self.draws, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "draws", arr)


def sample_prior(q: int, tau2: float, n_draws: int, seed: int) -> PriorSample:
    """Draw n_draws iid N(0, tau2 * I_q) vectors, bit-reproducibly for a seed.

    Philox uniforms on the open interval (0, 1) are pushed through the
    inverse normal CDF and scaled by sqrt(tau2).
    """
    if q < 1 or n_draws < 1:
        raise ValueError("sample_prior needs q >= 1 and n_draws >= 1")
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    from scipy.special import ndtri  # the search's only use of scipy

    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.integers(1, 1 << 53, size=(n_draws, q)).astype(float) / float(1 << 53)
    draws = np.sqrt(tau2) * ndtri(u)
    return PriorSample(draws=draws, seed=int(seed))
