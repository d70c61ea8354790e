"""Factors, polynomial term sets, designs, and treatment-replication accounting.

Factor settings live on equally spaced grids over [-1, 1] and designs store
grid *indices*, so treatment equality is exact integer comparison and never
depends on float rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import permutations
from numbers import Integral, Real
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Each preset's term shapes: the non-zero exponents of a term, in every
# placement on distinct factors.
PRESETS = {
    "main_effects": ((1,),),
    "quadratic_terms": ((2,),),
    "linear_interactions": ((1, 1),),
    "second_order": ((1,), (1, 1), (2,)),
    "cubic_terms": ((3,),),
    "third_order_terms": ((1, 1, 1), (2, 1)),
}


class FieldError(ValueError):
    """A failed check of one field of a spec dataclass, named by `field`."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def check_count(field: str, value, minimum: int = 1) -> int:
    """`value` as an int >= minimum; numpy integers pass, booleans and floats do not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise FieldError(field, "must be a non-negative integer" if minimum == 0
                         else f"must be an integer >= {minimum}")
    return int(value)


def check_number(field: str, value) -> float:
    """`value` as a finite float; strings, booleans, nan, inf and huge integers fail."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not abs(value) <= sys.float_info.max):
        raise FieldError(field, f"must be a finite number, got {value!r}")
    return float(value)


def set_checked(obj, **values) -> None:
    """Store checked values on a frozen dataclass instance."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class FactorGrid:
    """Allowed settings per factor: L equally spaced values spanning [-1, 1]."""

    levels: tuple[int, ...]

    def __post_init__(self):
        if not self.levels:
            raise FieldError("levels", "grid needs at least one factor")
        # the product stops where it passes the bound: a million factors cost a few steps
        bound, combinations = np.iinfo(np.int64).max, 1
        for j, lev in enumerate(self.levels):
            if isinstance(lev, bool) or not isinstance(lev, Integral):
                raise FieldError("levels", f"level counts must be integers, got {lev!r}")
            if lev < 2:
                raise FieldError("levels", f"factor {j + 1}: each factor needs >=2 levels")
            combinations *= int(lev)
            if combinations > bound:
                raise FieldError("levels", f"factors 1 to {j + 1} have more than {bound} level "
                                           "combinations, which overflows the 64-bit "
                                           "treatment labels")
        set_checked(self, levels=tuple(int(lev) for lev in self.levels))

    @classmethod
    def regular(cls, k: int, levels) -> "FactorGrid":
        """Grid for k factors; `levels` is one count shared by all or a length-k list."""
        k = check_count("k", k)
        if not isinstance(levels, (list, tuple)):
            levels = (levels,) * k
        if len(levels) != k:
            raise FieldError("levels", f"levels list has {len(levels)} entries for k={k}")
        return cls(tuple(levels))

    @property
    def k(self) -> int:
        return len(self.levels)

    @property
    def n_candidates(self) -> int:
        return math.prod(self.levels)

    def factor_values(self, j: int) -> np.ndarray:
        """Ordered settings of factor j: -1, -1+2/(L-1), ..., +1."""
        lev = self.levels[j]
        return -1.0 + 2.0 * np.arange(lev) / (lev - 1)

    def value_columns(self, settings: np.ndarray) -> np.ndarray:
        """Map an (n, k) grid-index array to real factor settings."""
        settings = np.asarray(settings)
        cols = [self.factor_values(j)[settings[:, j]] for j in range(self.k)]
        return np.column_stack(cols)

    def label_strides(self) -> np.ndarray:
        """Mixed-radix strides with factor k fastest (factor 1 slowest)."""
        strides = np.ones(self.k, dtype=np.int64)
        for j in range(self.k - 2, -1, -1):
            strides[j] = strides[j + 1] * self.levels[j + 1]
        return strides


@dataclass(frozen=True)
class Term:
    """A monomial over the k factors with its inference weight.

    Exponents must be non-negative integers (numpy integers pass, booleans
    and floats do not) and are stored as ints; the weight must be a finite
    positive number and is stored as a float. No weight means
    :func:`default_weight`.
    """

    exponents: tuple[int, ...]
    weight: float | None = None

    def __post_init__(self):
        exps = tuple(self.exponents)
        if not all(isinstance(e, Integral) and not isinstance(e, bool) and e >= 0 for e in exps):
            raise ValueError(f"exponents must be non-negative integers, got {list(exps)}")
        exps = tuple(int(e) for e in exps)
        if sum(exps) < 1:
            raise ValueError("the intercept is implicit; terms need degree >= 1")
        weight = default_weight(exps) if self.weight is None else self.weight
        if isinstance(weight, bool) or not isinstance(weight, Real) or not 0 < weight < math.inf:
            raise ValueError(f"term weight must be a finite positive number, got {weight!r}")
        set_checked(self, exponents=exps, weight=float(weight))


def default_weight(exponents: Sequence[int]) -> float:
    """1.0, except 0.25 for a pure quadratic (one exponent 2, rest 0)."""
    if sorted(exponents, reverse=True)[:1] == [2] and sum(exponents) == 2:
        return 0.25
    return 1.0


@dataclass(frozen=True)
class TermSet:
    """Ordered monomial collection: a primary or a potential model."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        seen = set()
        for t in self.terms:
            if t.exponents in seen:
                raise ValueError(f"duplicate term exponents {t.exponents}")
            seen.add(t.exponents)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def k(self) -> int:
        return len(self.terms[0].exponents) if self.terms else 0

    def exponent_matrix(self) -> np.ndarray:
        """(m, k) integer exponent array in term order."""
        if not self.terms:
            return np.zeros((0, self.k), dtype=np.int64)
        return np.array([t.exponents for t in self.terms], dtype=np.int64)

    def weights(self) -> np.ndarray:
        return np.array([t.weight for t in self.terms])

    def exponent_set(self) -> set[tuple[int, ...]]:
        return {t.exponents for t in self.terms}


def _sorted_terms(exponent_vectors: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    # Total degree first, then descending lexicographic so x1 precedes x2
    # and x1^2 precedes x1*x2 within a degree block.
    return sorted(exponent_vectors, key=lambda e: (sum(e), tuple(-x for x in e)))


def _preset_exponents(name: str, k: int) -> set[tuple[int, ...]]:
    if name not in PRESETS:
        raise ValueError(f"unknown model preset {name!r}")
    out = set()
    for shape in PRESETS[name]:
        for factors in permutations(range(k), len(shape)):
            e = [0] * k
            for j, power in zip(factors, shape):
                e[j] = power
            out.add(tuple(e))
    return out


def expand_preset(names: str | Sequence[str], k: int) -> TermSet:
    """Expand a named model preset, or several in the order given (each internally
    ordered), for k factors into an ordered TermSet."""
    if k < 1:
        raise ValueError("k must be >= 1")
    terms: list[Term] = []
    for name in [names] if isinstance(names, str) else names:
        exps = _preset_exponents(name, k)
        if not exps:
            raise ValueError(f"preset {name!r} needs more than k={k} factors")
        terms.extend(Term(e) for e in _sorted_terms(exps))
    return TermSet(tuple(terms))


def termset_from_exponents(vectors: Sequence[Sequence[int]], k: int) -> TermSet:
    """Build a TermSet from explicit exponent vectors (default weights applied)."""
    terms = []
    for v in vectors:
        if len(v) != k:
            raise ValueError(f"exponent vector {list(v)} has length {len(v)}, expected k={k}")
        terms.append(Term(v))
    return TermSet(tuple(terms))


@dataclass(frozen=True)
class Design:
    """n runs as grid indices; row (i, j) indexes factor j's level grid."""

    settings: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.settings, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("design settings must be an n x k matrix")
        arr.flags.writeable = False
        object.__setattr__(self, "settings", arr)

    @classmethod
    def from_indices(cls, indices, grid: FactorGrid) -> "Design":
        d = cls(np.asarray(indices, dtype=np.int64))
        if d.k != grid.k:
            raise ValueError(f"design has {d.k} columns, grid has {grid.k} factors")
        for j, lev in enumerate(grid.levels):
            col = d.settings[:, j]
            if col.min(initial=0) < 0 or col.max(initial=0) >= lev:
                raise ValueError(f"column {j + 1} holds indices outside 0..{lev - 1}")
        return d

    @property
    def n(self) -> int:
        return self.settings.shape[0]

    @property
    def k(self) -> int:
        return self.settings.shape[1]


def monomial_matrix(values: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Columns of monomials: entry (i, t) = prod_j values[i, j] ** exponents[t, j]."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    m = len(exponents)
    out = np.empty((n, m))
    for t in range(m):
        col = np.ones(n)
        for j, e in enumerate(exponents[t]):
            if e == 1:
                col = col * values[:, j]
            elif e > 1:
                col = col * values[:, j] ** int(e)
        out[:, t] = col
    return out


def model_matrices(design: Design, primary: TermSet, potential: TermSet,
                   grid: FactorGrid) -> tuple[np.ndarray, np.ndarray]:
    """(X1, X2) model matrices; no intercept column (handled via centering)."""
    values = grid.value_columns(design.settings)
    X1 = monomial_matrix(values, primary.exponent_matrix())
    X2 = monomial_matrix(values, potential.exponent_matrix())
    return X1, X2


def treatment_labels(settings: np.ndarray, grid: FactorGrid) -> np.ndarray:
    """1-based lexicographic candidate labels (factor 1 slowest, factor k fastest)."""
    idx = np.asarray(settings, dtype=np.int64)
    return 1 + idx @ grid.label_strides()


class Replication(NamedTuple):
    """How often a design's runs carry each treatment label, and its pure-error df (runs
    less distinct labels), in the form :func:`replication` chose: one count per label of
    range(size), `distinct` None, or the sorted distinct labels and their counts."""

    distinct: np.ndarray | None
    counts: np.ndarray
    pe_df: int

    def lof_df(self, p: int) -> int:
        """Lack-of-fit df: the distinct labels less (p + 1), floored at zero."""
        return max(int(self.counts.sum()) - self.pe_df - p - 1, 0)

    def moved(self, old, moves) -> np.ndarray:
        """The pure-error df of relabelling a run old[c] to moves[c] (old and moves
        broadcast): the design's, less one if the move brings in a label no run holds,
        plus one if no other run holds the label it leaves."""
        if self.distinct is None:  # one count per label: a gather
            fresh, leaves = self.counts[moves] == 0, self.counts[old] == 1
        else:
            distinct = self.distinct
            at = np.minimum(np.searchsorted(distinct, moves), distinct.size - 1)
            fresh = distinct[at] != moves
            leaves = self.counts[np.searchsorted(distinct, old)] == 1
        return self.pe_df - fresh + (leaves & (moves != old))


def replication(labels: np.ndarray, size: int | None = None) -> Replication:
    """The record of the runs' treatment `labels`: with a `size`, one count per label of
    range(size); else as np.unique(..., return_counts=True) without its checks, about
    7.5 against 9.5 µs on 36 labels (numpy 2.4)."""
    if size is not None:
        counts = np.bincount(labels, minlength=size)
        return Replication(None, counts, labels.size - np.count_nonzero(counts))
    ordered = np.sort(labels)
    last = np.ones(ordered.size, dtype=bool)  # entry i ends a run of equal labels
    np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
    ends = last.nonzero()[0]
    counts = ends + 1
    counts[1:] -= counts[:-1]  # numpy reads the overlapping operand as it was
    return Replication(ordered[ends], counts, labels.size - ends.size)
