"""Read-time yield analysis built on the Monte-Carlo tdp distributions.

The paper stops at the standard deviation of the read-time penalty
(Table IV); the obvious next question for a memory designer — and the
reason the paper bothers with full distributions at all — is *spec
compliance*: given a timing budget (say the sense clock has 10 % margin
over the nominal read), what fraction of bit lines violates it under each
patterning option, and how tight does the LE3 overlay budget have to be to
hit a parts-per-million target?

This module answers those questions from the same
:class:`~repro.core.montecarlo.MonteCarloTdpStudy` machinery:

* empirical and Gaussian-tail estimates of the violation probability of a
  tdp budget per option / overlay budget;
* per-array yield (every column of every word must meet the budget);
* the overlay budget required for a litho-etch option to reach a target
  violation probability, found by scanning the study's overlay sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from ..variability.doe import DOEPoint
from .montecarlo import MonteCarloTdpStudy
from .results import MonteCarloTdpRecord


class YieldAnalysisError(ValueError):
    """Raised for ill-posed yield questions."""


@dataclass(frozen=True)
class ViolationEstimate:
    """Probability that one bit line's tdp exceeds a budget.

    Two estimates are reported: the raw empirical fraction of Monte-Carlo
    samples above the budget, and a Gaussian-tail extrapolation fitted to
    the sample mean/σ (needed when the target probability is far below
    1/n_samples).
    """

    option_label: str
    budget_percent: float
    empirical_probability: float
    gaussian_probability: float
    n_samples: int
    sample_max: Optional[float] = None

    @property
    def method(self) -> str:
        """How :attr:`probability` was obtained.

        ``"empirical"`` when the raw Monte-Carlo fraction resolves the
        budget (at least three samples above it in expectation),
        ``"gaussian_tail"`` when the working estimate falls back to the
        fitted-normal extrapolation.
        """
        resolution = 1.0 / self.n_samples
        if self.empirical_probability >= 3.0 * resolution:
            return "empirical"
        return "gaussian_tail"

    @property
    def beyond_sampled_range(self) -> bool:
        """True when the Gaussian tail is queried past the largest sample.

        Out there nothing constrains the fit: the estimate is a pure
        extrapolation whose error grows with the distance, so consumers
        should treat the number as indicative only (or switch to the
        importance-sampling engine in :mod:`repro.highsigma`).
        """
        if self.method != "gaussian_tail" or self.sample_max is None:
            return False
        return self.budget_percent > self.sample_max

    @property
    def probability(self) -> float:
        """The working estimate: empirical when resolvable, Gaussian otherwise."""
        if self.method == "empirical":
            return self.empirical_probability
        return self.gaussian_probability

    @property
    def parts_per_million(self) -> float:
        return self.probability * 1e6


@dataclass(frozen=True)
class ComplianceRow:
    """Spec-compliance summary of one study point."""

    option_name: str
    overlay_three_sigma_nm: Optional[float]
    budget_percent: float
    violation: ViolationEstimate
    column_yield: float
    array_yield: float

    @property
    def label(self) -> str:
        if self.overlay_three_sigma_nm is None:
            return self.option_name
        return f"{self.option_name} {self.overlay_three_sigma_nm:g}nm OL"

    def to_record(self) -> Dict[str, object]:
        """Flat, JSON-ready view (the ``ResultSet`` record of this row)."""
        return {
            "record": "compliance",
            "option": self.option_name,
            "overlay_three_sigma_nm": self.overlay_three_sigma_nm,
            "budget_percent": self.budget_percent,
            "violation_probability": self.violation.probability,
            "violation_ppm": self.violation.parts_per_million,
            "method": self.violation.method,
            "beyond_sampled_range": self.violation.beyond_sampled_range,
            "empirical_probability": self.violation.empirical_probability,
            "gaussian_probability": self.violation.gaussian_probability,
            "column_yield": self.column_yield,
            "array_yield": self.array_yield,
        }


@dataclass(frozen=True)
class OverlayYieldRequirement:
    """Overlay budget needed to bring violations below a ppm target."""

    option_name: str
    budget_percent: float
    target_ppm: float
    required_overlay_nm: Optional[float]
    achieved_ppm_by_overlay: Dict[float, float] = field(default_factory=dict)

    @property
    def achievable(self) -> bool:
        return self.required_overlay_nm is not None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (embedded in ``ResultSet`` metadata)."""
        return {
            "option": self.option_name,
            "budget_percent": self.budget_percent,
            "target_ppm": self.target_ppm,
            "required_overlay_nm": self.required_overlay_nm,
            "achievable": self.achievable,
            "achieved_ppm_by_overlay": {
                f"{overlay:g}": ppm
                for overlay, ppm in sorted(self.achieved_ppm_by_overlay.items())
            },
        }


def violation_probability(
    record: MonteCarloTdpRecord, budget_percent: float
) -> ViolationEstimate:
    """Probability that the record's tdp exceeds ``budget_percent``."""
    if budget_percent <= 0.0:
        raise YieldAnalysisError("the tdp budget must be positive (in percent)")
    samples = np.asarray(record.tdp_percent_samples)
    empirical = float(np.mean(samples > budget_percent))
    sigma = record.summary.std
    if sigma <= 0.0:
        gaussian = 0.0 if record.summary.mean <= budget_percent else 1.0
    else:
        gaussian = float(ndtr(-((budget_percent - record.summary.mean) / sigma)))
    return ViolationEstimate(
        option_label=record.label,
        budget_percent=budget_percent,
        empirical_probability=empirical,
        gaussian_probability=gaussian,
        n_samples=record.n_samples,
        sample_max=float(samples.max()) if samples.size else None,
    )


def array_yield_from_column_probability(
    violation: float, n_columns: int, n_words: int = 1
) -> float:
    """Yield of an array whose every column (and word) must meet the budget.

    Columns are treated as independent samples of the interconnect
    variability — the standard assumption for uncorrelated local
    variations.  ``n_words`` allows modelling repeated column groups
    (banks); the default considers one column group.
    """
    if not 0.0 <= violation <= 1.0:
        raise YieldAnalysisError("the violation probability must be within [0, 1]")
    if n_columns < 1 or n_words < 1:
        raise YieldAnalysisError("column and word counts must be positive")
    survive = 1.0 - violation
    return float(survive ** (n_columns * n_words))


class ReadTimeYieldAnalysis:
    """Spec-compliance analysis on top of a Monte-Carlo tdp study."""

    def __init__(self, study: MonteCarloTdpStudy) -> None:
        self.study = study
        self._record_cache: Dict[str, MonteCarloTdpRecord] = {}

    # -- plumbing ------------------------------------------------------------------------

    def _record_for(self, point: DOEPoint) -> MonteCarloTdpRecord:
        if point.label not in self._record_cache:
            self._record_cache[point.label] = self.study.tdp_record(point)
        return self._record_cache[point.label]

    def prefetch(
        self,
        points: Optional[Sequence[DOEPoint]] = None,
        workers: Optional[int] = None,
    ) -> None:
        """Warm the record cache, optionally over a process pool.

        Defaults to the study DOE's Monte-Carlo grid; combined with the
        batched study path this turns a full compliance sweep into a few
        vectorised evaluations per worker.
        """
        chosen = list(points) if points is not None else self.study.doe.monte_carlo_points()
        missing = [point for point in chosen if point.label not in self._record_cache]
        if not missing:
            return
        for point, record in zip(
            missing, self.study.tdp_records(missing, workers=workers)
        ):
            self._record_cache[point.label] = record

    # -- per-option compliance -------------------------------------------------------------

    def compliance_table(
        self,
        budget_percent: float,
        n_wordlines: int = 64,
        n_columns: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> List[ComplianceRow]:
        """Violation probability and yield for every study point.

        Parameters
        ----------
        budget_percent:
            Allowed read-time penalty (e.g. ``10.0`` for a 10 % margin).
        n_wordlines:
            Array size of the underlying Monte-Carlo study.
        n_columns:
            Columns per array for the array-yield figure; defaults to the
            DOE's word length (10 bit-line pairs).
        workers:
            Optional process-pool width for computing the missing records.
        """
        columns = n_columns if n_columns is not None else self.study.doe.n_bitline_pairs
        points = self.study.doe.monte_carlo_points(n_wordlines=n_wordlines)
        self.prefetch(points, workers=workers)
        rows: List[ComplianceRow] = []
        for point in points:
            record = self._record_for(point)
            estimate = violation_probability(record, budget_percent)
            column_yield = 1.0 - estimate.probability
            rows.append(
                ComplianceRow(
                    option_name=point.option_name,
                    overlay_three_sigma_nm=point.overlay_three_sigma_nm,
                    budget_percent=budget_percent,
                    violation=estimate,
                    column_yield=column_yield,
                    array_yield=array_yield_from_column_probability(
                        estimate.probability, columns
                    ),
                )
            )
        return rows

    # -- overlay requirement -----------------------------------------------------------------

    def required_overlay_for_target(
        self,
        budget_percent: float,
        target_ppm: float,
        option_name: str = "LELELE",
        n_wordlines: int = 64,
    ) -> OverlayYieldRequirement:
        """Largest overlay budget that keeps violations below ``target_ppm``.

        Scans the DOE's overlay sweep (3/5/7/8 nm by default) and returns
        the loosest budget whose Gaussian-tail violation estimate is below
        the target, or ``None`` when even the tightest budget misses it.
        """
        if target_ppm <= 0.0:
            raise YieldAnalysisError("the ppm target must be positive")
        achieved: Dict[float, float] = {}
        acceptable: List[float] = []
        for overlay in self.study.doe.overlay_budgets_nm:
            point = DOEPoint(
                n_wordlines=n_wordlines,
                option_name=option_name,
                overlay_three_sigma_nm=overlay,
            )
            record = self._record_for(point)
            estimate = violation_probability(record, budget_percent)
            achieved[overlay] = estimate.parts_per_million
            if estimate.parts_per_million <= target_ppm:
                acceptable.append(overlay)
        return OverlayYieldRequirement(
            option_name=option_name,
            budget_percent=budget_percent,
            target_ppm=target_ppm,
            required_overlay_nm=max(acceptable) if acceptable else None,
            achieved_ppm_by_overlay=achieved,
        )

    # -- sweeps ---------------------------------------------------------------------------------

    def budget_sweep(
        self,
        budgets_percent: Sequence[float],
        option_name: str,
        overlay_three_sigma_nm: Optional[float] = None,
        n_wordlines: int = 64,
    ) -> List[Tuple[float, float]]:
        """(budget, violation probability) pairs for one option."""
        if not budgets_percent:
            raise YieldAnalysisError("at least one budget is required")
        point = DOEPoint(
            n_wordlines=n_wordlines,
            option_name=option_name,
            overlay_three_sigma_nm=overlay_three_sigma_nm,
        )
        record = self._record_for(point)
        pairs = []
        for budget in budgets_percent:
            estimate = violation_probability(record, budget)
            pairs.append((float(budget), estimate.probability))
        return pairs
