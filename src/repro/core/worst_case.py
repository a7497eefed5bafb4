"""Worst-case variability study (Section II: Table I, Fig. 2, Fig. 4).

The study enumerates every ±3σ corner of each patterning option's
parameters, extracts the printed layout at every corner and keeps the one
that maximises the bit-line capacitance — the paper's selection criterion,
since Cbl dominates the read time.  The winning corner then feeds:

* Table I — the ΔCbl / ΔRbl values of the worst corner;
* Fig. 2  — the printed-versus-drawn track geometry at that corner;
* Fig. 4  — worst-case td penalties from full read-path simulation across
  the DOE array sizes.

Fig. 4 and its write/noise-margin twins (:meth:`WorstCaseStudy.operation_rows`)
are read off a one-scenario :class:`~repro.core.campaign.SimulationCampaign`
that shares the study's corner search (:meth:`WorstCaseStudy.campaign`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..extraction.lpe import ParameterizedLPE, RCVariation
from ..layout.array import SRAMArrayLayout, generate_array_layout
from ..patterning import create_option
from ..patterning.base import PatterningOption
from ..patterning.sampler import enumerate_worst_case_corners
from ..technology.node import TechnologyNode
from ..variability.doe import StudyDOE, paper_doe
from .results import (
    LayoutDistortionRecord,
    OperationImpactRow,
    TrackDistortion,
    WorstCaseRCRow,
    WorstCaseTdRow,
)

if TYPE_CHECKING:
    from .campaign import SimulationCampaign


class WorstCaseStudyError(RuntimeError):
    """Raised when the worst-case study cannot be evaluated."""


@dataclass(frozen=True)
class WorstCaseCorner:
    """The worst corner of one option: its parameters and RC variations."""

    option_name: str
    parameters: Dict[str, float]
    bitline_variation: RCVariation
    vss_variation: RCVariation

    @property
    def delta_cbl_percent(self) -> float:
        return self.bitline_variation.delta_c_percent

    @property
    def delta_rbl_percent(self) -> float:
        return self.bitline_variation.delta_r_percent

    @property
    def delta_rvss_percent(self) -> float:
        return self.vss_variation.delta_r_percent

    def as_table1_row(self) -> WorstCaseRCRow:
        return WorstCaseRCRow(
            option_name=self.option_name,
            corner_parameters=dict(self.parameters),
            delta_cbl_percent=self.delta_cbl_percent,
            delta_rbl_percent=self.delta_rbl_percent,
            delta_rvss_percent=self.delta_rvss_percent,
        )


class WorstCaseStudy:
    """Runs the worst-case variability analysis of Section II.

    Parameters
    ----------
    node:
        Technology node (its variation assumptions set the corner budgets;
        use :meth:`repro.technology.node.TechnologyNode.with_variations` or
        :func:`repro.technology.node.n10` with a different overlay budget
        to change them).
    doe:
        The experiment grid; defaults to the paper's DOE.
    reference_wordlines:
        Array size used for the corner search itself (per-cell RC ratios do
        not depend on the array size, so one reference extraction is
        enough).
    """

    def __init__(
        self,
        node: TechnologyNode,
        doe: Optional[StudyDOE] = None,
        reference_wordlines: int = 64,
    ) -> None:
        self.node = node
        self.doe = doe if doe is not None else paper_doe()
        self.reference_wordlines = reference_wordlines
        self._lpe = ParameterizedLPE(node)
        self._reference_layout: Optional[SRAMArrayLayout] = None
        self._worst_corner_cache: Dict[str, WorstCaseCorner] = {}
        self._campaigns: Dict[Tuple[str, StudyDOE, int], SimulationCampaign] = {}

    @classmethod
    def from_spec(cls, spec) -> "WorstCaseStudy":
        """Build a worst-case study from an
        :class:`~repro.core.spec.ExperimentSpec`.  Prefer
        :func:`repro.api.run`; this hook exists for callers that need the
        study object itself."""
        return cls(spec.technology.build(), doe=spec.array.to_doe())

    # -- helpers ------------------------------------------------------------------------

    @property
    def reference_layout(self) -> SRAMArrayLayout:
        if self._reference_layout is None:
            self._reference_layout = generate_array_layout(
                n_wordlines=self.reference_wordlines,
                n_bitline_pairs=self.doe.n_bitline_pairs,
                node=self.node,
            )
        return self._reference_layout

    def _target_nets(self) -> Tuple[str, str]:
        """Central bit-line net and its VSS rail net."""
        bl_net, _blb, vss_net, _vdd = self.reference_layout.central_column_nets()
        return bl_net, vss_net

    def option(self, option_name: str) -> PatterningOption:
        """The :class:`PatterningOption` instance for ``option_name``."""
        return create_option(option_name)

    # -- worst-corner search (Table I) -----------------------------------------------------

    def find_worst_corner(self, option_name: str) -> WorstCaseCorner:
        """Exhaustively search the ±3σ corners for the maximum ΔCbl."""
        if option_name in self._worst_corner_cache:
            return self._worst_corner_cache[option_name]

        option = self.option(option_name)
        corners = enumerate_worst_case_corners(option, self.node.variations)
        layout = self.reference_layout
        bl_net, vss_net = self._target_nets()

        best: Optional[WorstCaseCorner] = None
        for corner in corners:
            parameters = corner.as_dict()
            extraction = self._lpe.extract_with_patterning(
                layout.metal1_pattern, option, parameters
            )
            bitline_variation = extraction.variation_for(bl_net)
            vss_variation = extraction.variation_for(vss_net)
            candidate = WorstCaseCorner(
                option_name=option.name,
                parameters=parameters,
                bitline_variation=bitline_variation,
                vss_variation=vss_variation,
            )
            if best is None or candidate.bitline_variation.cvar > best.bitline_variation.cvar:
                best = candidate
        if best is None:  # pragma: no cover - enumerate always yields corners
            raise WorstCaseStudyError(f"no corners found for option {option_name!r}")
        self._worst_corner_cache[option_name] = best
        return best

    def table1(self, option_names: Optional[Sequence[str]] = None) -> List[WorstCaseRCRow]:
        """Table I: worst-case ΔCbl / ΔRbl per patterning option."""
        names = list(option_names) if option_names is not None else list(self.doe.option_names)
        return [self.find_worst_corner(name).as_table1_row() for name in names]

    # -- layout distortion (Fig. 2) -----------------------------------------------------------

    def layout_distortion(
        self, option_name: str, nets: Optional[Sequence[str]] = None
    ) -> LayoutDistortionRecord:
        """Printed-versus-drawn track geometry at the option's worst corner.

        By default the tracks of the central column (VSS, BL, VDD, BLB) are
        reported — the cell-level view of Fig. 2.
        """
        corner = self.find_worst_corner(option_name)
        option = self.option(option_name)
        layout = self.reference_layout
        patterned = option.apply(layout.metal1_pattern, corner.parameters)

        if nets is None:
            bl_net, blb_net, vss_net, vdd_net = layout.central_column_nets()
            nets = [vss_net, bl_net, vdd_net, blb_net]

        tracks = []
        for net in nets:
            drawn = patterned.nominal.track_for(net)
            printed = patterned.printed.track_for(net)
            tracks.append(
                TrackDistortion(
                    net=net,
                    mask=printed.mask,
                    drawn_left_nm=drawn.left_edge_nm,
                    drawn_right_nm=drawn.right_edge_nm,
                    printed_left_nm=printed.left_edge_nm,
                    printed_right_nm=printed.right_edge_nm,
                )
            )
        return LayoutDistortionRecord(
            option_name=corner.option_name,
            corner_parameters=dict(corner.parameters),
            tracks=tuple(tracks),
        )

    def figure2(self) -> List[LayoutDistortionRecord]:
        return [self.layout_distortion(name) for name in self.doe.option_names]

    # -- simulated rows (Fig. 4 and the operation suite) -----------------------------------

    def campaign(
        self,
        operation: str = "read",
        array_sizes: Optional[Sequence[int]] = None,
        doe: Optional[StudyDOE] = None,
        seed: int = 2015,
    ) -> SimulationCampaign:
        """A one-scenario campaign that shares this study's corner search.

        ``doe`` defaults to the study's own grid and ``array_sizes``
        replaces its sizes.  Fig. 4, the operation rows and Tables II–III
        (:class:`~repro.core.validation.FormulaValidation`) are all read
        off such a campaign, so each table has one definition.  The
        campaign is memoised per (operation, grid, seed), and it keeps its
        records, so repeated tables simulate each item once.
        """
        # Imported here: the campaign module imports this one.
        from .campaign import CampaignScenario, SimulationCampaign

        grid = doe if doe is not None else self.doe
        if array_sizes is not None:
            grid = replace(grid, array_sizes=tuple(array_sizes))
        key = (operation, grid, seed)
        campaign = self._campaigns.get(key)
        if campaign is None:
            campaign = SimulationCampaign(
                self.node,
                doe=grid,
                scenarios=(CampaignScenario(operation=operation),),
                worst_case=self,
                seed=seed,
            )
            self._campaigns[key] = campaign
        return campaign

    def figure4(
        self, array_sizes: Optional[Sequence[int]] = None
    ) -> List[WorstCaseTdRow]:
        """Fig. 4: nominal td and worst-case td penalty per option and array size.

        Each option's worst corner (from the Table I search) is re-applied
        to every array size and simulated with the full read-path circuit.
        """
        campaign = self.campaign(array_sizes=array_sizes)
        return campaign.figure4_rows(campaign.run())

    def operation_rows(
        self, operation_name: str, array_sizes: Optional[Sequence[int]] = None
    ) -> List[OperationImpactRow]:
        """Worst-case impact of every option on one operation's figure of merit.

        The write/margin twin of :meth:`figure4`: each option's Table I
        worst corner is re-applied to every array size and the operation
        (write delay, hold/read SNM — or read, reproducing Fig. 4) is
        measured on the printed column.
        """
        campaign = self.campaign(operation_name, array_sizes=array_sizes)
        return campaign.operation_rows(campaign.run())
