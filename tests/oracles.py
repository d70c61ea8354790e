"""Independent brute-force implementations used as test oracles.

Everything here deliberately takes the slow, explicit route: full n x n
projector matrices, dense inverses and determinants, and quantile inversion
by bisection of the forward CDF, so these never share code with the package
paths they check. The per-move exchange loops score every move with its own
objective call and share no move-selection code with the batched search.
"""

import math

import numpy as np
from scipy import special


def centering_projector(n: int) -> np.ndarray:
    return np.eye(n) - np.ones((n, n)) / n


def dense_centered_info(X1: np.ndarray) -> np.ndarray:
    n = X1.shape[0]
    return X1.T @ centering_projector(n) @ X1


def dense_phi_ds(X1: np.ndarray) -> float:
    return float(np.linalg.det(np.linalg.inv(dense_centered_info(X1))))


def dense_phi_l(X1: np.ndarray, weights: np.ndarray) -> float:
    L = np.diag(np.sqrt(np.asarray(weights, dtype=float)))
    Minv = np.linalg.inv(dense_centered_info(X1))
    return float(np.trace(L.T @ Minv @ L))


def dense_residual_gram(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    n = X1.shape[0]
    X = np.column_stack([np.ones(n), X1])
    P = X @ np.linalg.inv(X.T @ X) @ X.T
    return X2.T @ (np.eye(n) - P) @ X2


def dense_alias(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    n = X1.shape[0]
    Q = centering_projector(n)
    return np.linalg.inv(dense_centered_info(X1)) @ X1.T @ Q @ X2


def dense_lof_dp(X1, X2, pe_df, alpha_lof, tau2) -> float:
    q = X2.shape[1]
    R = dense_residual_gram(X1, X2)
    quant = f_quantile_bisection(q, pe_df, 1 - alpha_lof)
    return quant**q / np.linalg.det(R + np.eye(q) / tau2)


def dense_lof_lp(X1, X2, weights, pe_df, alpha_lof, tau2) -> float:
    q = X2.shape[1]
    R = dense_residual_gram(X1, X2)
    inv = np.linalg.inv(R + np.eye(q) / tau2)
    quant = f_quantile_bisection(1, pe_df, 1 - alpha_lof)
    return quant * float(np.asarray(weights) @ np.diag(inv))


def dense_mse_logdet(X1, X2, beta2) -> float:
    """log |M^-1 + A1 b b' A1'| by direct determinant (the lemma's left side)."""
    Minv = np.linalg.inv(dense_centered_info(X1))
    A1 = dense_alias(X1, X2)
    v = A1 @ np.asarray(beta2, dtype=float)
    return float(np.log(np.linalg.det(Minv + np.outer(v, v))))


def dense_mse_l(X1, X2, weights, tau2) -> float:
    Minv = np.linalg.inv(dense_centered_info(X1))
    A1 = dense_alias(X1, X2)
    w = np.asarray(weights, dtype=float)
    return float(w @ np.diag(Minv) + tau2 * (w @ np.diag(A1 @ A1.T)))


def f_cdf(x: float, df1: int, df2: int) -> float:
    if x <= 0:
        return 0.0
    z = df1 * x / (df1 * x + df2)
    return float(special.betainc(df1 / 2.0, df2 / 2.0, z))


def f_quantile_bisection(df1: int, df2: int, prob: float, tol: float = 1e-12) -> float:
    lo, hi = 0.0, 1.0
    while f_cdf(hi, df1, df2) < prob:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("bisection bracket blew up")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_cdf(mid, df1, df2) < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def random_instance(rng, n=None, p=None, q=None):
    """A random well-posed (X1, X2) pair for oracle comparisons."""
    n = n or int(rng.integers(8, 31))
    p = p or int(rng.integers(1, 9))
    q = q or int(rng.integers(1, 7))
    n = max(n, p + q + 2)
    X1 = rng.normal(size=(n, p))
    X2 = rng.normal(size=(n, q))
    return X1, X2


# -- per-move exchange loops ---------------------------------------------------
# Exchange with every move scored by its own objective call. The batched
# search must reproduce their outcomes exactly. Both stop once every group,
# counted from the one whose move was last accepted, has been scanned at the
# current design without an accept; `passes` counts the passes begun.

def _improves(current, candidate, rel_tol):
    if not candidate < current:
        return False
    if math.isinf(current):
        return True
    return (current - candidate) > rel_tol * abs(current)


def per_move_point_exchange(start, n_candidates, objective, rel_tol=1e-9, max_passes=50):
    """(state, objective, passes, converged, accepted) of row-by-row point exchange."""
    idx = np.array(start, dtype=np.int64)
    cur = float(objective(idx))
    accepted = []
    passes = clean = 0  # clean: rows in a row without an accept
    while clean < idx.size and passes < max_passes:
        passes += 1
        for i in range(idx.size):
            old = idx[i]
            best_c, best_val = -1, cur
            for c in range(n_candidates):
                if c == old:
                    continue
                idx[i] = c
                val = float(objective(idx))
                if val < best_val:
                    best_val, best_c = val, c
            if best_c >= 0 and _improves(cur, best_val, rel_tol):
                idx[i] = best_c
                cur = best_val
                accepted.append(cur)
                clean = 1
            else:
                idx[i] = old
                clean += 1
            if clean == idx.size:
                break
    return idx, cur, passes, clean == idx.size, accepted


def per_move_coordinate_exchange(start, levels, objective, rel_tol=1e-9, max_passes=50):
    """(state, objective, passes, converged, accepted) of coordinate exchange."""
    state = np.array(start, dtype=np.int64)
    n, k = state.shape
    cur = float(objective(state))
    accepted = []
    passes = clean = 0  # clean: (run, factor) entries in a row without an accept
    while clean < n * k and passes < max_passes:
        passes += 1
        for i, j in np.ndindex(n, k):
            old = state[i, j]
            best_l, best_val = -1, cur
            for level in range(levels[j]):
                if level == old:
                    continue
                state[i, j] = level
                val = float(objective(state))
                if val < best_val:
                    best_val, best_l = val, level
            if best_l >= 0 and _improves(cur, best_val, rel_tol):
                state[i, j] = best_l
                cur = best_val
                accepted.append(cur)
                clean = 1
            else:
                state[i, j] = old
                clean += 1
            if clean == n * k:
                break
    return state, cur, passes, clean == n * k, accepted
