"""Variability substrate: distributions, statistics and the study DOE."""

from .distributions import (
    CornerDistribution,
    Distribution,
    DistributionError,
    NormalDistribution,
    TruncatedNormalDistribution,
)
from .doe import DOEError, DOEPoint, StudyDOE, paper_doe, reduced_doe
from .statistics import (
    Histogram,
    StatisticsError,
    SummaryStatistics,
    correlation,
    standard_deviation,
)

__all__ = [
    "CornerDistribution",
    "DOEError",
    "DOEPoint",
    "Distribution",
    "DistributionError",
    "Histogram",
    "NormalDistribution",
    "StatisticsError",
    "StudyDOE",
    "SummaryStatistics",
    "TruncatedNormalDistribution",
    "correlation",
    "paper_doe",
    "reduced_doe",
    "standard_deviation",
]
