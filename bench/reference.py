"""Machine-speed reference: a fixed numpy/scipy kernel that uses nothing of optex.

The benchmark runs on shared virtual machines whose speed drifts by a third
or more over minutes, in CPU time as much as in wall time. `run.py` times one
batch of this kernel after every search of a timed run and scales the run's
timings to a machine on which a batch takes REFERENCE_S seconds. The
drift then largely cancels, while a change to optex shows in full, since the
kernel calls no optex code.

The kernel repeats the operation mix of one case-study evaluation
(`PointObjective` on k=3, n=36, p + q = 19, 125 candidates): a row gather,
a centred information matrix, a Cholesky factorisation, an inverse, a log
determinant and a count of distinct rows.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla

REFERENCE_S = 0.4       # nominal seconds of one batch; timings are scaled to it
BATCH = 6000            # kernel evaluations per batch: 0.3-0.6 s on a 2-vCPU Xeon
CANDIDATES, RUNS, COLUMNS = 125, 36, 19

_rng = np.random.default_rng(20241224)
_CAND = _rng.standard_normal((CANDIDATES, COLUMNS))
_START = _rng.integers(0, CANDIDATES, size=RUNS)
_EYE = np.eye(COLUMNS)


def _evaluate(idx: np.ndarray) -> float:
    X = _CAND[idx]
    s = X.sum(axis=0)
    M = X.T @ X - np.outer(s, s) / RUNS + _EYE
    c, _ = sla.cho_factor(M, lower=True, check_finite=False)
    inv = sla.cho_solve((c, True), _EYE, check_finite=False)
    return 2.0 * float(np.sum(np.log(np.diag(c)))) + float(np.trace(inv)) \
        + np.unique(idx).size


def batch_s() -> float:
    """Wall seconds of one batch: every candidate swapped into each run in turn."""
    idx = _START.copy()
    t = time.perf_counter()
    for i in range(BATCH):
        idx[i % RUNS] = i % CANDIDATES
        _evaluate(idx)
    return time.perf_counter() - t
