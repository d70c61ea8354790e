"""Multi-objective optimal experimental designs via exchange algorithms."""

from .criteria import CriterionConfig, compound_objective, efficiency
from .experiment import ExperimentSpec
from .model import FactorGrid, expand_preset
from .search import multi_start

__version__ = "0.1.0"
