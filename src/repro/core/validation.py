"""Formula-versus-simulation validation (Tables II and III).

Table II compares the *nominal* read time predicted by the lumped-RC
formula with the simulated one across the DOE array sizes: the formula
systematically underestimates (it is a lumped model of a distributed line
and ignores vias, leakage and the VSS return path) but preserves the
ordering and rough scaling — exactly the paper's observation.

Table III compares the *penalty* (tdp) instead: because tdp is a ratio,
most lumped-model errors cancel and the formula tracks the simulation
closely for LE3 and EUV; the known exception is SADP at large arrays,
where the anti-correlated VSS-rail resistance (present in the simulation,
absent from the formula) pushes the simulated tdp up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..technology.node import TechnologyNode
from ..variability.doe import StudyDOE, paper_doe
from .analytical import AnalyticalDelayModel, model_from_technology
from .results import FormulaVsSimulationTdRow, FormulaVsSimulationTdpRow
from .worst_case import WorstCaseStudy


class ValidationError(RuntimeError):
    """Raised when the validation study cannot be evaluated."""


class FormulaValidation:
    """Runs the Table II / Table III comparisons.

    Parameters
    ----------
    node:
        Technology node.
    doe:
        Experiment grid (array sizes, options).
    model:
        Analytical delay model; derived from the node when omitted.
    worst_case:
        Worst-case study providing the per-option worst corners; constructed
        when omitted (and shared with the caller when provided, so the
        expensive corner search is not repeated).  Both tables are read
        off its one-scenario campaign (:meth:`WorstCaseStudy.campaign`)
        over this validation's DOE.
    """

    def __init__(
        self,
        node: TechnologyNode,
        doe: Optional[StudyDOE] = None,
        model: Optional[AnalyticalDelayModel] = None,
        worst_case: Optional[WorstCaseStudy] = None,
    ) -> None:
        self.node = node
        self.doe = doe if doe is not None else paper_doe()
        self.model = model if model is not None else model_from_technology(
            node, n_bitline_pairs=self.doe.n_bitline_pairs
        )
        self.worst_case = worst_case if worst_case is not None else WorstCaseStudy(
            node, doe=self.doe
        )

    # -- Table II -----------------------------------------------------------------------

    def table2(
        self, array_sizes: Optional[Sequence[int]] = None
    ) -> List[FormulaVsSimulationTdRow]:
        """Nominal td: simulation versus formula, per array size.

        Only the nominal items run: Table II needs no corner search.
        """
        campaign = self.worst_case.campaign(array_sizes=array_sizes, doe=self.doe)
        return campaign.table2_rows(campaign.run(kinds=("nominal",)), self.model)

    # -- Table III -----------------------------------------------------------------------

    def table3(
        self, array_sizes: Optional[Sequence[int]] = None
    ) -> List[FormulaVsSimulationTdpRow]:
        """Worst-case tdp (%): simulation and formula rows per array size.

        The returned list interleaves one ``"simulation"`` and one
        ``"formula"`` row per array size, mirroring the structure of the
        paper's Table III.
        """
        campaign = self.worst_case.campaign(array_sizes=array_sizes, doe=self.doe)
        return campaign.table3_rows(campaign.run(), self.model)

    # -- agreement metrics ---------------------------------------------------------------------

    def tdp_agreement_percent(
        self, rows: Optional[List[FormulaVsSimulationTdpRow]] = None
    ) -> Dict[str, float]:
        """Largest |formula − simulation| tdp gap per option (percentage points).

        The paper's qualitative claim — good agreement for LE3/EUV, a known
        divergence for SADP at large arrays — becomes checkable numbers.
        """
        chosen = rows if rows is not None else self.table3()
        by_size: Dict[str, Dict[str, Dict[str, float]]] = {}
        for row in chosen:
            by_size.setdefault(row.array_label, {})[row.method] = row.tdp_percent_by_option
        gaps: Dict[str, float] = {}
        for methods in by_size.values():
            if "simulation" not in methods or "formula" not in methods:
                raise ValidationError("table3 rows must come in simulation/formula pairs")
            for option_name, simulated_value in methods["simulation"].items():
                gap = abs(simulated_value - methods["formula"][option_name])
                gaps[option_name] = max(gaps.get(option_name, 0.0), gap)
        return gaps
