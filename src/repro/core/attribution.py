"""Variance attribution: which patterning parameter drives the tdp spread?

The paper states that "the OL error plays a decisive role in LE3
performance impact distribution" but does not quantify it.  This module
does, on the same seeded Monte-Carlo draw as Table IV: the LPE sample
batch carries the parameter matrix that produced it, so the first-order
variance contribution of each parameter can be estimated directly from the
sample set (squared Pearson correlation between the parameter and the
resulting tdp — exact for an additive linear response, a good screening
metric for the mildly non-linear one here).

Typical questions it answers:

* at an 8 nm overlay budget, what fraction of the LE3 tdp variance comes
  from the two overlay errors versus the three CD errors?
* once the budget is tightened to 3 nm, does CD take over as the limiter?
* for SADP, is it the core CD or the spacer deposition that matters?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..extraction.lpe import BatchRCVariation
from ..variability.doe import DOEPoint
from .analytical import AnalyticalDelayModel
from .montecarlo import MonteCarloTdpStudy


class AttributionError(ValueError):
    """Raised for ill-posed attribution requests."""


@dataclass(frozen=True)
class ParameterContribution:
    """First-order variance contribution of one patterning parameter."""

    parameter: str
    correlation: float
    variance_share: float

    @property
    def variance_share_percent(self) -> float:
        return self.variance_share * 100.0


@dataclass(frozen=True)
class AttributionResult:
    """Variance attribution of one study point."""

    option_name: str
    overlay_three_sigma_nm: Optional[float]
    n_wordlines: int
    n_samples: int
    total_sigma_percent: float
    contributions: Tuple[ParameterContribution, ...]

    def share_of(self, parameter: str) -> float:
        for contribution in self.contributions:
            if contribution.parameter == parameter:
                return contribution.variance_share
        raise AttributionError(
            f"no contribution recorded for parameter {parameter!r}; "
            f"parameters: {[c.parameter for c in self.contributions]}"
        )

    def grouped_share(self, prefix: str) -> float:
        """Summed variance share of every parameter whose name starts with ``prefix``.

        ``grouped_share("ol:")`` gives the total overlay contribution,
        ``grouped_share("cd:")`` the total CD contribution.
        """
        return sum(
            contribution.variance_share
            for contribution in self.contributions
            if contribution.parameter.startswith(prefix)
        )

    def dominant_parameter(self) -> str:
        if not self.contributions:
            raise AttributionError("no contributions recorded")
        return max(self.contributions, key=lambda c: c.variance_share).parameter

    @property
    def explained_fraction(self) -> float:
        """Sum of first-order shares (≈1 for an additive response)."""
        return sum(contribution.variance_share for contribution in self.contributions)


def attribute_from_variations(
    variations: BatchRCVariation,
    model: AnalyticalDelayModel,
    n_wordlines: int,
    option_name: str,
    overlay_three_sigma_nm: Optional[float] = None,
) -> AttributionResult:
    """Compute the attribution from a batch of RC-variation samples."""
    if len(variations) < 10:
        raise AttributionError("variance attribution needs at least 10 samples")
    if not variations.parameter_names:
        raise AttributionError("the variation samples carry no parameter values")

    tdp = model.tdp_percent(n_wordlines, variations.rvar, variations.cvar)
    total_sigma = float(np.std(tdp, ddof=1))

    contributions: List[ParameterContribution] = []
    for column, name in enumerate(variations.parameter_names):
        values = variations.parameter_matrix[:, column]
        if np.std(values) == 0.0 or total_sigma == 0.0:
            correlation = 0.0
        else:
            correlation = float(np.corrcoef(values, tdp)[0, 1])
        contributions.append(
            ParameterContribution(
                parameter=name,
                correlation=correlation,
                variance_share=correlation * correlation,
            )
        )
    contributions.sort(key=lambda c: c.variance_share, reverse=True)
    return AttributionResult(
        option_name=option_name,
        overlay_three_sigma_nm=overlay_three_sigma_nm,
        n_wordlines=n_wordlines,
        n_samples=len(variations),
        total_sigma_percent=total_sigma,
        contributions=tuple(contributions),
    )


class VarianceAttribution:
    """Runs the attribution for the study points of a Monte-Carlo study."""

    def __init__(self, study: MonteCarloTdpStudy) -> None:
        self.study = study

    def attribute(self, point: DOEPoint) -> AttributionResult:
        variations = self.study.rc_variation_samples_batch(point)
        return attribute_from_variations(
            variations,
            self.study.model,
            n_wordlines=point.n_wordlines,
            option_name=point.option_name,
            overlay_three_sigma_nm=point.overlay_three_sigma_nm,
        )

    def overlay_versus_cd(
        self,
        option_name: str = "LELELE",
        n_wordlines: int = 64,
    ) -> Dict[float, Tuple[float, float]]:
        """Overlay-versus-CD variance split across the overlay sweep.

        Returns ``{overlay_budget: (overlay_share, cd_share)}`` — the data
        behind the paper's "tight OL control is required" conclusion.
        """
        result: Dict[float, Tuple[float, float]] = {}
        for budget in self.study.doe.overlay_budgets_nm:
            point = DOEPoint(
                n_wordlines=n_wordlines,
                option_name=option_name,
                overlay_three_sigma_nm=budget,
            )
            attribution = self.attribute(point)
            result[budget] = (
                attribution.grouped_share("ol:"),
                attribution.grouped_share("cd:"),
            )
        return result
