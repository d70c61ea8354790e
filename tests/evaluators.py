"""Test-side views of the package: raw-matrix evaluators and one-value helpers.

The oracles in ``oracles.py`` take arbitrary (X1, X2) pairs, not designs on a
grid. These helpers give the package's evaluator term sets of the right sizes
and weights, so its components can be read for such matrices directly. The
rest read single values (one monomial column, one F quantile, one design's
replication counts) from what the package computes in bulk.
"""

from typing import NamedTuple

import numpy as np

from optex.criteria import CriterionConfig, CriterionEvaluator, information_factor
from optex.model import (
    Term,
    TermSet,
    monomial_matrix,
    treatment_counts,
    treatment_labels,
)
from optex.numeric import f_quantile_table


def matrix_evaluator(p, q, family="MSE.P", w1=None, w2=None, kappa=(1 / 3, 1 / 3, 1 / 3),
                     tau2=1.0, alpha=0.05, alpha_lof=0.05, max_pe_df=64):
    """Evaluator for p primary and q potential columns with the given term weights."""
    w1 = np.ones(p) if w1 is None else w1
    w2 = np.ones(q) if w2 is None else w2
    # one factor, distinct powers: the exponents only keep the terms distinct
    primary = TermSet(tuple(Term((j + 1,), float(w)) for j, w in enumerate(w1)))
    potential = TermSet(tuple(Term((p + j + 1,), float(w)) for j, w in enumerate(w2)))
    config = CriterionConfig(family=family, kappa=kappa, tau2=tau2, alpha=alpha,
                             alpha_lof=alpha_lof)
    return CriterionEvaluator(primary, potential, max_pe_df, config)


def components(X1, X2=None, pe_df=5, family="MSE.P", prior=None, **kwargs):
    """Full breakdown of (X1, X2) with pe_df pure-error df under one family."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.zeros((X1.shape[0], 0)) if X2 is None else np.asarray(X2, dtype=float)
    ev = matrix_evaluator(X1.shape[1], X2.shape[1], family,
                          max_pe_df=max(64, pe_df), **kwargs)
    return ev.breakdown(X1, X2, pe_df, 0, prior)


def kernel_blocks(X1, X2=None, ridge=1.0):
    """(M, C = Z'M^-1Z, R) read from the kernel's factor; None when M fails."""
    X1 = np.asarray(X1, dtype=float)
    X2 = np.zeros((X1.shape[0], 0)) if X2 is None else np.asarray(X2, dtype=float)
    p = X1.shape[1]
    factor = information_factor(np.hstack([X1, X2])[None], p, ridge)
    if not factor.ok[0]:
        return None
    L = factor.L[0]
    L11, L21, L22 = L[:p, :p], L[p:, :p], L[p:, p:]
    return L11 @ L11.T, L21 @ L21.T, L22 @ L22.T - ridge * np.eye(X2.shape[1])


def evaluate_term(term, design, grid):
    """Length-n column of one monomial evaluated at each run's settings."""
    if len(term.exponents) != grid.k:
        raise ValueError("term exponent length does not match factor count")
    values = grid.value_columns(design.settings)
    return monomial_matrix(values, np.array([term.exponents], dtype=np.int64))[:, 0]


def f_quantile(df1, df2, prob):
    """x with P(F_{df1,df2} <= x) = prob: the df2 entry of the package's table."""
    if df1 < 1 or df2 < 1:
        raise ValueError("f_quantile needs df1 >= 1 and df2 >= 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    return float(f_quantile_table(df1, df2, prob)[df2])


class ReplicationSummary(NamedTuple):
    """Distinct-treatment count and the pure-error / lack-of-fit df split."""

    t: int
    pe_df: int
    lof_df: int


def replication_summary(design, grid, p):
    return ReplicationSummary(*treatment_counts(treatment_labels(design.settings, grid), p))


def pe_df_with_each(kept, moves):
    """Pure-error df of the runs labelled `kept` plus one run labelled moves[c], for each c."""
    distinct = np.unique(kept)
    at = np.minimum(np.searchsorted(distinct, moves), distinct.size - 1)
    t = distinct.size + (distinct[at] != moves)  # a move to a fresh treatment adds one
    return kept.size + 1 - t
