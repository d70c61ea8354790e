"""The validated description of one design-construction problem."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .criteria import CriterionConfig
from .model import FactorGrid, FieldError, TermSet, check_count, set_checked

ALGORITHMS = ("ptex", "coordex")
# Point exchange lists the grid's full factorial; it is not run on larger grids.
CANDIDATE_CAP = 1_000_000
# Floats of the MSE.D prior draw, q * mc_samples (512 MiB), formed a few times over
# while it is drawn; a larger draw is refused.
PRIOR_DRAW_CAP = 1 << 26


@dataclass(frozen=True)
class ExperimentSpec:
    """Factors, run size, primary/potential models, criterion, and search tunables.

    A failed check raises FieldError naming the attribute it concerns. Counts
    and the seed are integers (numpy integers pass, booleans do not) and are
    stored as ints.
    """

    grid: FactorGrid
    n_runs: int
    primary: TermSet
    potential: TermSet
    criterion: CriterionConfig = CriterionConfig()
    n_starts: int = 10
    algorithm: str | None = None
    seed: int | None = None

    def __post_init__(self):
        for name, kind in (("grid", FactorGrid), ("primary", TermSet), ("potential", TermSet),
                           ("criterion", CriterionConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise FieldError(name, f"must be a {kind.__name__}, got {type(value).__name__}")
        k = self.grid.k
        set_checked(self, n_runs=check_count("n_runs", self.n_runs),
                    n_starts=check_count("n_starts", self.n_starts),
                    seed=None if self.seed is None else check_count("seed", self.seed, 0))
        if self.algorithm is not None and self.algorithm not in ALGORITHMS:
            raise FieldError("algorithm", f"must be one of {ALGORITHMS}")
        if self.algorithm == "ptex" and self.grid.n_candidates > CANDIDATE_CAP:
            raise FieldError("algorithm", f"ptex lists all {self.grid.n_candidates} level "
                             f"combinations, above the cap of {CANDIDATE_CAP}; use coordex")
        if len(self.primary) < 1:
            raise FieldError("primary", "the primary model needs at least one term")
        if self.primary.k != k:
            raise FieldError("primary", f"primary terms have {self.primary.k} exponents, k={k}")
        if len(self.potential) and self.potential.k != k:
            raise FieldError("potential",
                             f"potential terms have {self.potential.k} exponents, k={k}")
        overlap = self.primary.exponent_set() & self.potential.exponent_set()
        if overlap:
            raise FieldError("potential",
                             f"terms {sorted(overlap)} appear in both primary and potential sets")
        if self.n_runs < len(self.primary) + 1:
            raise FieldError("n_runs",
                             f"runs={self.n_runs} cannot estimate {len(self.primary)} primary "
                             "terms plus an intercept")
        draws = self.q * self.criterion.mc_samples
        if self.criterion.family == "MSE.D" and draws > PRIOR_DRAW_CAP:
            raise FieldError("mc_samples", f"the prior draw of q * mc_samples = {draws} floats "
                                           f"exceeds the cap of {PRIOR_DRAW_CAP}")
        if self.n_runs < self.p + 2 and self.criterion.needs_pure_error(self.q):
            raise FieldError("n_runs", f"runs={self.n_runs} leaves no pure error, so every design "
                                       f"scores +inf under these weights; use >= {self.p + 2}")

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
        """Point exchange up to four factors and CANDIDATE_CAP candidates, else coordinate."""
        if self.algorithm:
            return self.algorithm
        return "ptex" if self.k <= 4 and self.grid.n_candidates <= CANDIDATE_CAP else "coordex"

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        return replace(self, **kwargs)
