"""The parameterized layout parasitic extraction (LPE) tool.

This is the reproduction of the imec in-house tool described in
Section II.A of the paper: its inputs are the technology parameters, the
multiple-patterning layer operations (CD, overlay and spacer variation)
and the target layout; it produces the target metrics (R, C, CC) or
netlists with parasitics, in an iterative loop that supports Monte-Carlo
sampling of the input variability parameters.

The central quantities the rest of the study consumes are the **relative
RC variations** of the bit line:

* ``Rvar = R(printed) / R(nominal)``
* ``Cvar = C(printed) / C(nominal)``

expressed as ratios (``1 + x``), exactly as they enter the analytical
formula (eq. 4 of the paper).

The Monte-Carlo loop runs batched:
:meth:`ParameterizedLPE.monte_carlo_variations_batch_multi` draws all
samples, prints them and extracts them as arrays.  The one-sample entry
points (:meth:`ParameterizedLPE.rc_variation`,
:meth:`ParameterizedLPE.extract_with_patterning`) serve the worst-case
corner search and the circuit simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..layout.array import SRAMArrayLayout
from ..layout.wire import NetRole, TrackPattern
from ..patterning.base import ParameterValues, PatternedResult, PatterningOption
from ..patterning.sampler import ParameterSampler
from ..technology.node import TechnologyNode
from .field import (
    BatchExtractionResult,
    CrossSectionExtractor,
    ExtractionError,
    ExtractionResult,
    WireParasitics,
)


@dataclass(frozen=True)
class RCVariation:
    """Relative R and C variation of one net, printed versus nominal.

    ``rvar`` and ``cvar`` are ratios: 1.0 means nominal, 1.10 means +10 %.
    """

    net: str
    option_name: str
    rvar: float
    cvar: float
    parameters: Dict[str, float] = field(default_factory=dict)

    @property
    def delta_r_percent(self) -> float:
        return (self.rvar - 1.0) * 100.0

    @property
    def delta_c_percent(self) -> float:
        return (self.cvar - 1.0) * 100.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.option_name}/{self.net}: "
            f"dC={self.delta_c_percent:+.2f}% dR={self.delta_r_percent:+.2f}%"
        )


@dataclass(frozen=True)
class BatchRCVariation:
    """Monte-Carlo RC variations of one net as arrays (the batched path).

    ``rvar`` and ``cvar`` are ``(N,)`` ratio arrays; ``parameter_matrix``
    holds the sampled parameter vectors (``(N, k)``, columns follow
    ``parameter_names``), row ``i`` being the draw behind sample ``i``.
    """

    net: str
    option_name: str
    rvar: np.ndarray
    cvar: np.ndarray
    parameter_names: Tuple[str, ...]
    parameter_matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.rvar.shape != self.cvar.shape or self.rvar.ndim != 1:
            raise ExtractionError("rvar and cvar must be equally long 1-D arrays")
        if self.parameter_matrix.shape[0] != self.rvar.shape[0]:
            raise ExtractionError("parameter matrix row count must match the samples")

    def __len__(self) -> int:
        return int(self.rvar.shape[0])

    @property
    def delta_r_percent(self) -> np.ndarray:
        return (self.rvar - 1.0) * 100.0

    @property
    def delta_c_percent(self) -> np.ndarray:
        return (self.cvar - 1.0) * 100.0


@dataclass
class PatternedExtraction:
    """Nominal and printed extraction of a pattern plus the derived variations."""

    option_name: str
    patterned: PatternedResult
    nominal_extraction: ExtractionResult
    printed_extraction: ExtractionResult

    def variation_for(self, net: str) -> RCVariation:
        nominal = self.nominal_extraction[net]
        printed = self.printed_extraction[net]
        if nominal.capacitance_total_f <= 0.0 or nominal.resistance_total_ohm <= 0.0:
            raise ExtractionError(f"nominal parasitics of net {net!r} are degenerate")
        return RCVariation(
            net=net,
            option_name=self.option_name,
            rvar=printed.resistance_total_ohm / nominal.resistance_total_ohm,
            cvar=printed.capacitance_total_f / nominal.capacitance_total_f,
            parameters=dict(self.patterned.parameters),
        )

    def variations(self, nets: Iterable[str]) -> Dict[str, RCVariation]:
        return {net: self.variation_for(net) for net in nets}


class ParameterizedLPE:
    """Patterning-aware parasitic extraction driver.

    Parameters
    ----------
    node:
        Technology node providing the metal stack and variation assumptions.
    layer_name:
        The layer to extract; defaults to the node's bit-line layer
        (metal1), which the paper identifies as the critical layer.
    """

    #: Number of distinct (pattern, thickness) nominal extractions kept.
    NOMINAL_CACHE_SIZE = 16

    def __init__(self, node: TechnologyNode, layer_name: Optional[str] = None) -> None:
        self.node = node
        self.layer_name = layer_name if layer_name is not None else node.bitline_layer
        self.layer = node.metal_stack.layer(self.layer_name)
        # Nominal (unvaried) extractions keyed by the pattern object and the
        # thickness delta.  TrackPattern is immutable, so keeping a strong
        # reference alongside the result makes the id()-based key safe.
        self._nominal_cache: Dict[
            Tuple[int, float], Tuple[TrackPattern, ExtractionResult]
        ] = {}

    # -- plain extraction -----------------------------------------------------

    def extract_pattern(
        self, pattern: TrackPattern, thickness_delta_nm: float = 0.0
    ) -> ExtractionResult:
        """Extract a (nominal or printed) track pattern."""
        extractor = CrossSectionExtractor(self.layer, thickness_delta_nm)
        return extractor.extract(pattern)

    def nominal_extraction(
        self, pattern: TrackPattern, thickness_delta_nm: float = 0.0
    ) -> ExtractionResult:
        """Extract the nominal pattern, memoising per (pattern, thickness).

        Every variation is a ratio against the same nominal extraction, so
        the repeated studies (Monte-Carlo loops, corner sweeps, per-corner
        ``rc_variation`` calls) share one baseline extraction instead of
        recomputing it per call.
        """
        key = (id(pattern), thickness_delta_nm)
        cached = self._nominal_cache.get(key)
        if cached is not None and cached[0] is pattern:
            return cached[1]
        result = self.extract_pattern(pattern, thickness_delta_nm)
        if len(self._nominal_cache) >= self.NOMINAL_CACHE_SIZE:
            self._nominal_cache.clear()
        self._nominal_cache[key] = (pattern, result)
        return result

    def extract_array(self, layout: SRAMArrayLayout) -> ExtractionResult:
        """Extract the nominal metal1 pattern of an SRAM array layout."""
        return self.extract_pattern(layout.metal1_pattern)

    # -- patterning-aware extraction -------------------------------------------

    def extract_with_patterning(
        self,
        pattern: TrackPattern,
        option: PatterningOption,
        parameters: ParameterValues,
        thickness_delta_nm: float = 0.0,
    ) -> PatternedExtraction:
        """Print the pattern with ``option`` at ``parameters`` and extract both views."""
        patterned = option.apply(pattern, parameters)
        nominal_extraction = self.nominal_extraction(pattern, thickness_delta_nm)
        printed_extraction = self.extract_pattern(patterned.printed, thickness_delta_nm)
        return PatternedExtraction(
            option_name=option.name,
            patterned=patterned,
            nominal_extraction=nominal_extraction,
            printed_extraction=printed_extraction,
        )

    def rc_variation(
        self,
        pattern: TrackPattern,
        option: PatterningOption,
        parameters: ParameterValues,
        net: str,
    ) -> RCVariation:
        """R/C variation of one net under one parameter assignment."""
        extraction = self.extract_with_patterning(pattern, option, parameters)
        return extraction.variation_for(net)

    # -- the iterative / Monte-Carlo loop ---------------------------------------

    def monte_carlo_variations_batch_multi(
        self,
        pattern: TrackPattern,
        option: PatterningOption,
        nets: Sequence[str],
        n_samples: int,
        seed: Optional[int] = None,
        truncate_at_three_sigma: bool = False,
    ) -> Dict[str, BatchRCVariation]:
        """Monte-Carlo RC-variation distributions of several nets.

        This is the "iterative loop" of the paper's tool, run as arrays:
        one draw of ``n_samples`` parameter vectors, one batched print and
        one batched extraction for the whole net list, so callers needing
        e.g. the bit line *and* its VSS rail (the operation suite's margin
        twins) pay a single pass.  Sample ``i`` of every returned array
        describes the same printed wafer.
        """
        if not nets:
            raise ExtractionError("the net list cannot be empty")
        sampler = ParameterSampler(
            option,
            self.node.variations,
            seed=seed,
            truncate_at_three_sigma=truncate_at_three_sigma,
        )
        batch = sampler.draw_batch(n_samples)
        geometry = option.apply_batch(pattern, batch.matrix, batch.parameter_names)
        extractor = CrossSectionExtractor(self.layer)
        printed_by_net = extractor.extract_batch(geometry, nets=list(nets))
        nominal_extraction = self.nominal_extraction(pattern)
        variations: Dict[str, BatchRCVariation] = {}
        for net in nets:
            printed = printed_by_net[net]
            nominal = nominal_extraction[net]
            if nominal.capacitance_total_f <= 0.0 or nominal.resistance_total_ohm <= 0.0:
                raise ExtractionError(f"nominal parasitics of net {net!r} are degenerate")
            variations[net] = BatchRCVariation(
                net=net,
                option_name=option.name,
                rvar=printed.resistance_total_ohm / nominal.resistance_total_ohm,
                cvar=printed.capacitance_total_f / nominal.capacitance_total_f,
                parameter_names=batch.parameter_names,
                parameter_matrix=batch.matrix,
            )
        return variations

    def corner_variations(
        self,
        pattern: TrackPattern,
        option: PatterningOption,
        net: str,
        corners: Sequence[Mapping[str, float]],
    ) -> List[RCVariation]:
        """RC variations of ``net`` for an explicit list of corner assignments."""
        nominal_extraction = self.nominal_extraction(pattern)
        nominal = nominal_extraction[net]
        results = []
        for corner in corners:
            patterned = option.apply(pattern, corner)
            printed = self.extract_pattern(patterned.printed)[net]
            results.append(
                RCVariation(
                    net=net,
                    option_name=option.name,
                    rvar=printed.resistance_total_ohm / nominal.resistance_total_ohm,
                    cvar=printed.capacitance_total_f / nominal.capacitance_total_f,
                    parameters=dict(corner),
                )
            )
        return results
