"""Top-level study orchestration.

:class:`MultiPatterningSRAMStudy` runs the complete evaluation of the
paper — every table and every figure — from a single technology node, and
collects the results into a :class:`~repro.core.results.StudyReport`.  It
is the object the examples and benches drive, and the quickest way for a
downstream user to reproduce the whole paper:

>>> from repro import MultiPatterningSRAMStudy
>>> from repro.technology import n10
>>> study = MultiPatterningSRAMStudy(n10())
>>> report = study.run(monte_carlo_samples=200)     # doctest: +SKIP
>>> report.is_complete()                            # doctest: +SKIP
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from ..technology.node import TechnologyNode
from ..variability.doe import StudyDOE, paper_doe
from .analytical import AnalyticalDelayModel, model_from_technology
from .campaign import CampaignScenario, SimulationCampaign
from .comparison import ComparisonVerdict, OptionComparison
from .montecarlo import MonteCarloTdpStudy
from .results import StudyReport
from .spec import (
    ArraySpec,
    ExecutionSpec,
    ExperimentSpec,
    OperationSpec,
    TechnologySpec,
)
from .worst_case import WorstCaseStudy


class StudyError(RuntimeError):
    """Raised when the study cannot be configured."""


@dataclass
class MultiPatterningSRAMStudy:
    """Full reproduction driver.

    Parameters
    ----------
    node:
        Technology node (defaults elsewhere to :func:`repro.technology.n10`).
    doe:
        Experiment grid; the paper's grid by default.  Pass
        :func:`repro.variability.doe.reduced_doe` for fast smoke runs.
    monte_carlo_samples:
        Samples per Monte-Carlo study point.
    seed:
        Base random seed for the Monte-Carlo study.
    """

    node: TechnologyNode
    doe: StudyDOE = field(default_factory=paper_doe)
    monte_carlo_samples: int = 1000
    seed: int = 2015

    def __post_init__(self) -> None:
        if self.monte_carlo_samples < 2:
            raise StudyError("the study needs at least two Monte-Carlo samples")
        self._model = model_from_technology(
            self.node, n_bitline_pairs=self.doe.n_bitline_pairs
        )
        self._worst_case = WorstCaseStudy(self.node, doe=self.doe)
        self._monte_carlo = MonteCarloTdpStudy(
            self.node,
            doe=self.doe,
            model=self._model,
            n_samples=self.monte_carlo_samples,
            seed=self.seed,
        )

    # -- declarative bridge --------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: ExperimentSpec) -> "MultiPatterningSRAMStudy":
        """Build the study from a declarative :class:`ExperimentSpec`.

        The study is maintained as a compatibility front door; new code
        should describe experiments as specs and run them through
        :func:`repro.api.run`.
        """
        return cls(
            spec.technology.build(),
            doe=spec.array.to_doe(),
            monte_carlo_samples=spec.operation.samples,
            seed=spec.execution.seed,
        )

    def to_spec(self, kind: str = "campaign") -> ExperimentSpec:
        """The :class:`ExperimentSpec` equivalent of this study's settings.

        The returned document reproduces this study's node, DOE, sample
        count and seed, so ``repro.api.run(study.to_spec(kind))`` replays
        the corresponding experiment without the constructor.
        """
        return ExperimentSpec(
            kind=kind,
            technology=TechnologySpec(
                overlay_three_sigma_nm=(
                    self.node.variations.litho_etch.overlay.three_sigma_nm
                )
            ),
            array=ArraySpec(
                sizes=tuple(self.doe.array_sizes),
                options=tuple(self.doe.option_names),
                n_bitline_pairs=self.doe.n_bitline_pairs,
                overlay_budgets_nm=tuple(self.doe.overlay_budgets_nm),
            ),
            operation=OperationSpec(samples=self.monte_carlo_samples),
            execution=ExecutionSpec(seed=self.seed),
        )

    # -- component access ------------------------------------------------------------------

    @property
    def analytical_model(self) -> AnalyticalDelayModel:
        return self._model

    @property
    def worst_case(self) -> WorstCaseStudy:
        return self._worst_case

    @property
    def monte_carlo(self) -> MonteCarloTdpStudy:
        return self._monte_carlo

    # -- campaign plumbing -------------------------------------------------------------------

    def campaign(
        self,
        scenarios: Optional[Sequence[CampaignScenario]] = None,
        store_dir: Optional[Path] = None,
    ) -> SimulationCampaign:
        """A :class:`SimulationCampaign` over this study's node and DOE.

        The campaign shares the study's worst-case corner search, so corner
        discovery is never repeated between Table I / Fig. 2 and the
        simulated experiments.
        """
        return SimulationCampaign(
            self.node,
            doe=self.doe,
            scenarios=scenarios,
            worst_case=self._worst_case,
            store_dir=store_dir,
            seed=self.seed,
        )

    def _campaign_for(
        self, array_sizes: Optional[Sequence[int]]
    ) -> SimulationCampaign:
        """The worst-case study's read campaign over these sizes.

        The worst-case study memoises it, records included, so Fig. 4 /
        Table II / Table III (and repeated calls, here or through
        :attr:`worst_case`) simulate each work item exactly once.
        """
        return self._worst_case.campaign(array_sizes=array_sizes, seed=self.seed)

    # -- individual experiments --------------------------------------------------------------

    def run_table1(self):
        """Worst-case ΔCbl/ΔRbl per option (Table I)."""
        return self._worst_case.table1()

    def run_figure2(self):
        """Worst-case layout distortion per option (Fig. 2)."""
        return self._worst_case.figure2()

    def run_figure4(
        self,
        array_sizes: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
    ):
        """Worst-case td penalties versus array size (Fig. 4).

        Runs through the study's shared campaign: memoized work items
        and optional multiprocessing, with records identical in any
        worker count (the golden corpus freezes them).
        """
        campaign = self._campaign_for(array_sizes)
        return campaign.figure4_rows(campaign.run(workers=workers))

    def run_table2(
        self,
        array_sizes: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
    ):
        """Nominal td: formula versus simulation (Table II).

        Only the nominal items run — Table II needs no corner search and
        no corner simulations.
        """
        campaign = self._campaign_for(array_sizes)
        return campaign.table2_rows(
            campaign.run(workers=workers, kinds=("nominal",)), self._model
        )

    def run_table3(
        self,
        array_sizes: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
    ):
        """Worst-case tdp: formula versus simulation (Table III)."""
        campaign = self._campaign_for(array_sizes)
        return campaign.table3_rows(campaign.run(workers=workers), self._model)

    def run_figure5(self, n_wordlines: int = 64, overlay_three_sigma_nm: float = 8.0):
        """Monte-Carlo tdp distributions (Fig. 5)."""
        return self._monte_carlo.figure5(
            n_wordlines=n_wordlines, overlay_three_sigma_nm=overlay_three_sigma_nm
        )

    def run_table4(self, n_wordlines: int = 64):
        """Monte-Carlo tdp σ per option and overlay budget (Table IV)."""
        return self._monte_carlo.table4(n_wordlines=n_wordlines)

    # -- the whole paper --------------------------------------------------------------------------

    def run(
        self,
        array_sizes: Optional[Sequence[int]] = None,
        monte_carlo_samples: Optional[int] = None,
        monte_carlo_wordlines: int = 64,
    ) -> StudyReport:
        """Run every experiment and return the collected report.

        Parameters
        ----------
        array_sizes:
            Restrict the simulated array sizes (Fig. 4 / Tables II-III);
            ``None`` runs the full DOE.
        monte_carlo_samples:
            Override the per-point Monte-Carlo sample count for this run.
        monte_carlo_wordlines:
            Array size of the Monte-Carlo study (the paper uses 64).
        """
        if monte_carlo_samples is not None:
            self._monte_carlo.n_samples = monte_carlo_samples

        report = StudyReport()
        report.table1 = self.run_table1()
        report.figure2 = self.run_figure2()
        report.figure4 = self.run_figure4(array_sizes=array_sizes)
        report.table2 = self.run_table2(array_sizes=array_sizes)
        report.table3 = self.run_table3(array_sizes=array_sizes)
        report.figure5 = self.run_figure5(n_wordlines=monte_carlo_wordlines)
        report.table4 = self.run_table4(n_wordlines=monte_carlo_wordlines)
        return report

    def verdict(self, report: Optional[StudyReport] = None) -> ComparisonVerdict:
        """The Section-IV recommendation computed from a report.

        When no report is given, the (cheaper) Fig. 4 and Table IV parts
        are computed on the fly.
        """
        if report is not None and report.figure4 and report.table4:
            figure4_rows = report.figure4
            table4_rows = report.table4
        else:
            figure4_rows = self.run_figure4()
            table4_rows = self.run_table4()
        comparison = OptionComparison(figure4_rows, table4_rows)
        return comparison.verdict()
