"""Monte-Carlo sampling and worst-case enumeration of patterning parameters.

Two ways of exercising a patterning option's variation space:

* :class:`ParameterSampler` draws random parameter vectors from the
  per-parameter normal distributions (σ = 3σ budget / 3), optionally
  truncated at ±3σ — this feeds the Monte-Carlo tdp study (Fig. 5,
  Table IV);
* :func:`enumerate_worst_case_corners` enumerates all ±3σ corner
  combinations — this feeds the worst-case study (Table I, Fig. 4).

:meth:`ParameterSampler.draw_batch` draws all N samples as one ``(N, k)``
array, consuming the underlying random stream sample-major over the sorted
parameter names (zero-σ parameters take no draws).  That order fixes every
seeded Monte-Carlo record, so the golden corpus pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..technology.corners import (
    CornerPoint,
    GaussianSpec,
    VariationAssumptions,
    enumerate_corner_points,
)
from .base import PatterningError, PatterningOption


@dataclass(frozen=True)
class ParameterSampleBatch:
    """All Monte-Carlo draws of a study point as one ``(N, k)`` matrix.

    Columns follow :attr:`parameter_names`; row ``i`` is draw ``i``.
    """

    parameter_names: Tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.parameter_names):
            raise PatterningError(
                f"sample matrix shape {self.matrix.shape} does not match "
                f"{len(self.parameter_names)} parameter names"
            )

    def __len__(self) -> int:
        return int(self.matrix.shape[0])

    def column(self, name: str) -> np.ndarray:
        """All draws of one parameter (a length-N view)."""
        try:
            index = self.parameter_names.index(name)
        except ValueError:
            raise PatterningError(
                f"unknown parameter {name!r}; known: {list(self.parameter_names)}"
            ) from None
        return self.matrix[:, index]


class ParameterSampler:
    """Draws patterning-parameter vectors for a given option.

    Parameters
    ----------
    option:
        The patterning option whose parameters are sampled.
    assumptions:
        The variation assumptions providing the 3σ budgets.
    seed:
        Seed for the underlying :class:`numpy.random.Generator`; pass a
        fixed value for reproducible studies.
    truncate_at_three_sigma:
        When true, draws are clipped to the ±3σ interval (the budgets are
        *specification* limits); when false the full normal is used.
    """

    def __init__(
        self,
        option: PatterningOption,
        assumptions: VariationAssumptions,
        seed: Optional[int] = None,
        truncate_at_three_sigma: bool = False,
    ) -> None:
        self.option = option
        self.assumptions = assumptions
        self.specs: Dict[str, GaussianSpec] = option.parameter_specs(assumptions)
        if not self.specs:
            raise PatterningError(
                f"option {option.name!r} exposes no variation parameters"
            )
        self.truncate_at_three_sigma = truncate_at_three_sigma
        self._rng = np.random.default_rng(seed)
        self._names: List[str] = sorted(self.specs)

    @property
    def parameter_names(self) -> List[str]:
        return list(self._names)

    def draw_batch(self, count: int) -> ParameterSampleBatch:
        """Draw ``count`` parameter vectors as one ``(count, k)`` array.

        Rows are samples and columns the sorted parameter names.  The
        random stream is consumed sample-major over the parameters with a
        non-zero σ; zero-σ columns stay at zero and take no draws.
        """
        if count < 1:
            raise PatterningError("the number of Monte-Carlo samples must be positive")
        sigmas = np.array([self.specs[name].sigma_nm for name in self._names])
        active = sigmas > 0.0
        matrix = np.zeros((count, len(self._names)))
        if np.any(active):
            standard = self._rng.standard_normal((count, int(np.count_nonzero(active))))
            matrix[:, active] = standard * sigmas[active]
            if self.truncate_at_three_sigma:
                bounds = np.array(
                    [self.specs[name].three_sigma_nm for name in self._names]
                )
                np.clip(matrix, -bounds, bounds, out=matrix)
        return ParameterSampleBatch(
            parameter_names=tuple(self._names), matrix=matrix
        )


def enumerate_worst_case_corners(
    option: PatterningOption,
    assumptions: VariationAssumptions,
    include_nominal: bool = False,
) -> List[CornerPoint]:
    """All ±3σ corner combinations of an option's parameters.

    The number of corners is ``2**n`` (or ``3**n`` with
    ``include_nominal``); LE3 has 5 parameters (3 CDs + 2 overlays) → 32
    corners, SADP and EUV have 2 and 1 → 4 and 2 corners.
    """
    specs = option.parameter_specs(assumptions)
    if not specs:
        raise PatterningError(f"option {option.name!r} exposes no variation parameters")
    return enumerate_corner_points(specs, include_nominal=include_nominal)
