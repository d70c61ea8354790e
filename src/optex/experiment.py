"""The validated description of one design-construction problem."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .criteria import CriterionConfig
from .model import FactorGrid, TermSet

ALGORITHMS = ("ptex", "coordex")


@dataclass(frozen=True)
class ExperimentSpec:
    """Factors, run size, primary/potential models, criterion, and search tunables."""

    grid: FactorGrid
    n_runs: int
    primary: TermSet
    potential: TermSet
    criterion: CriterionConfig = CriterionConfig()
    n_starts: int = 10
    algorithm: str | None = None
    seed: int | None = None

    def __post_init__(self):
        k = self.grid.k
        if self.n_runs < 1:
            raise ValueError("runs must be >= 1")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if len(self.primary) < 1:
            raise ValueError("the primary model needs at least one term")
        if self.primary.k != k:
            raise ValueError(f"primary terms have {self.primary.k} exponents, k={k}")
        if len(self.potential) and self.potential.k != k:
            raise ValueError(f"potential terms have {self.potential.k} exponents, k={k}")
        if self.primary.role != "primary" or self.potential.role != "potential":
            raise ValueError("term-set roles are swapped")
        overlap = self.primary.exponent_set() & self.potential.exponent_set()
        if overlap:
            raise ValueError(f"terms {sorted(overlap)} appear in both primary and potential sets")
        if self.n_runs < len(self.primary) + 1:
            raise ValueError(
                f"runs={self.n_runs} cannot estimate {len(self.primary)} primary terms "
                "plus an intercept")

    @property
    def k(self) -> int:
        return self.grid.k

    @property
    def p(self) -> int:
        return len(self.primary)

    @property
    def q(self) -> int:
        return len(self.potential)

    def default_algorithm(self) -> str:
        """Point exchange up to four factors, coordinate exchange beyond."""
        return self.algorithm or ("ptex" if self.k <= 4 else "coordex")

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        return replace(self, **kwargs)
