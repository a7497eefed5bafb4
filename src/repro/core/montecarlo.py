"""Monte-Carlo read-time-penalty study (Section III.B: Fig. 5, Table IV).

The paper's key methodological point: simulating full parasitic netlists
for thousands of samples is prohibitive, but the analytical formula of
Section III.A turns each sampled RC variation into a tdp value in
microseconds of CPU time.  The flow here follows the paper exactly:

1. the parameterized LPE tool samples the patterning parameters and
   extracts the bit-line ``(Rvar, Cvar)`` distribution (the expensive but
   still fast part — one batched draw, print and quasi-2D extraction of
   all samples);
2. the analytical formula maps the ``(Rvar, Cvar)`` arrays to tdp in one
   array-valued evaluation;
3. the tdp distribution (Fig. 5) and its standard deviation (Table IV) are
   reported per option and — for LE3 — per overlay budget.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..extraction.lpe import BatchRCVariation, ParameterizedLPE
from ..layout.array import SRAMArrayLayout, generate_array_layout
from ..patterning import create_option
from ..patterning.base import PatterningOption
from ..technology.node import TechnologyNode
from ..variability.doe import DOEPoint, StudyDOE, paper_doe
from ..variability.statistics import Histogram, SummaryStatistics
from .analytical import AnalyticalDelayModel, model_from_technology
from .operations import (
    OperationResponseSurface,
    OperationSimulators,
    calibrate_response_surface,
    create_operation,
)
from .results import MonteCarloTdpRecord, OperationSigmaRow, TdpSigmaRow


class MonteCarloStudyError(RuntimeError):
    """Raised when the Monte-Carlo study cannot be evaluated."""


#: Per-process study instance installed by the pool initializer, so the
#: study is pickled once per worker process instead of once per point and
#: each worker's layout/LPE caches amortise across its points.
_worker_study: Optional["MonteCarloTdpStudy"] = None


def _init_worker_study(study: "MonteCarloTdpStudy") -> None:
    global _worker_study
    _worker_study = study


def _tdp_record_worker(point: DOEPoint, bins: int):
    """Module-level worker so process pools can pickle the call."""
    return _worker_study.tdp_record(point, bins=bins)


class MonteCarloTdpStudy:
    """Monte-Carlo distribution of the read-time penalty.

    Parameters
    ----------
    node:
        Technology node; its variation assumptions provide the sampling
        budgets (the LE3 overlay budget is overridden per study point).
    doe:
        Experiment grid (options, overlay sweep, array sizes).
    model:
        Analytical delay model; derived from the node when omitted.
    n_samples:
        Monte-Carlo samples per study point.
    seed:
        Base random seed; each study point derives its own stream from it
        so points are independent yet reproducible.
    """

    def __init__(
        self,
        node: TechnologyNode,
        doe: Optional[StudyDOE] = None,
        model: Optional[AnalyticalDelayModel] = None,
        n_samples: int = 1000,
        seed: int = 2015,
    ) -> None:
        if n_samples < 2:
            raise MonteCarloStudyError("the Monte-Carlo study needs at least two samples")
        self.node = node
        self.doe = doe if doe is not None else paper_doe()
        self.model = model if model is not None else model_from_technology(
            node, n_bitline_pairs=self.doe.n_bitline_pairs
        )
        self.n_samples = n_samples
        self.seed = seed
        self._layout_cache: Dict[int, SRAMArrayLayout] = {}
        self._lpe_cache: Dict[Optional[float], ParameterizedLPE] = {}
        self._surface_cache: Dict[Tuple[str, int, float], OperationResponseSurface] = {}
        self._operation_simulators: Optional[OperationSimulators] = None

    def __getstate__(self):
        # Ship a lean study to process-pool workers: the layout and LPE
        # caches are cheap to rebuild and expensive to serialise per point.
        state = self.__dict__.copy()
        state["_layout_cache"] = {}
        state["_lpe_cache"] = {}
        state["_surface_cache"] = {}
        state["_operation_simulators"] = None
        return state

    # -- plumbing -----------------------------------------------------------------------

    def _layout_for(self, n_wordlines: int) -> SRAMArrayLayout:
        if n_wordlines not in self._layout_cache:
            self._layout_cache[n_wordlines] = generate_array_layout(
                n_wordlines=n_wordlines,
                n_bitline_pairs=self.doe.n_bitline_pairs,
                node=self.node,
            )
        return self._layout_cache[n_wordlines]

    def _node_for_point(self, point: DOEPoint) -> TechnologyNode:
        if point.overlay_three_sigma_nm is None:
            return self.node
        return self.node.with_variations(
            self.node.variations.for_overlay(point.overlay_three_sigma_nm)
        )

    def _lpe_for_point(self, point: DOEPoint) -> ParameterizedLPE:
        """One LPE instance per overlay budget (the only node-varying knob).

        Sharing the instance across study points lets its nominal-extraction
        cache serve every repeated sweep over the same layouts.
        """
        key = point.overlay_three_sigma_nm
        if key not in self._lpe_cache:
            self._lpe_cache[key] = ParameterizedLPE(self._node_for_point(point))
        return self._lpe_cache[key]

    def _seed_for_point(self, point: DOEPoint) -> int:
        # crc32 rather than hash(): stable across interpreter invocations
        # and hash-seed randomisation, so process-pool workers and the
        # serial path derive identical per-point streams.
        return zlib.crc32(f"{self.seed}/{point.label}".encode()) % (2**31)

    # -- sampling ------------------------------------------------------------------------

    def _central_nets(self, point: DOEPoint) -> Tuple[str, str]:
        """Net names of the central bit line and its VSS rail."""
        layout = self._layout_for(point.n_wordlines)
        bl_net, _blb, vss_net, _vdd = layout.central_column_nets()
        return bl_net, vss_net

    def _variation_samples_batch_multi(
        self, point: DOEPoint, nets: Tuple[str, ...]
    ) -> Dict[str, BatchRCVariation]:
        option = create_option(point.option_name)
        layout = self._layout_for(point.n_wordlines)
        lpe = self._lpe_for_point(point)
        return lpe.monte_carlo_variations_batch_multi(
            layout.metal1_pattern,
            option,
            nets,
            n_samples=self.n_samples,
            seed=self._seed_for_point(point),
        )

    def rc_variation_samples_batch(self, point: DOEPoint) -> BatchRCVariation:
        """The LPE Monte-Carlo loop: the bit line's (Rvar, Cvar) arrays."""
        bl_net, _ = self._central_nets(point)
        return self._variation_samples_batch_multi(point, (bl_net,))[bl_net]

    def column_variation_samples_batch(
        self, point: DOEPoint
    ) -> Tuple[BatchRCVariation, BatchRCVariation]:
        """Bit-line and VSS-rail sample batches from one draw/print/extract.

        The expensive stages run once for both nets; the operation suite's
        margin twins consume the pair.  The point's seed fixes the draw, so
        the bit-line batch equals :meth:`rc_variation_samples_batch`'s.
        """
        bl_net, vss_net = self._central_nets(point)
        variations = self._variation_samples_batch_multi(point, (bl_net, vss_net))
        return variations[bl_net], variations[vss_net]

    def tdp_record(self, point: DOEPoint, bins: int = 30) -> MonteCarloTdpRecord:
        """Fig. 5 record for one study point: tdp samples, summary, histogram."""
        variations = self.rc_variation_samples_batch(point)
        tdp_array = self.model.tdp_percent(
            point.n_wordlines, variations.rvar, variations.cvar
        )
        tdp_percent = tuple(float(value) for value in tdp_array)
        summary = SummaryStatistics.from_samples(tdp_percent)
        histogram = Histogram.from_samples(tdp_percent, bins=bins)
        return MonteCarloTdpRecord(
            option_name=point.option_name,
            overlay_three_sigma_nm=point.overlay_three_sigma_nm,
            n_wordlines=point.n_wordlines,
            n_samples=self.n_samples,
            tdp_percent_samples=tdp_percent,
            summary=summary,
            histogram=histogram,
        )

    def tdp_records(
        self,
        points: Sequence[DOEPoint],
        bins: int = 30,
        workers: Optional[int] = None,
    ) -> List[MonteCarloTdpRecord]:
        """Fig. 5 records for several study points, optionally in parallel.

        ``workers`` > 1 fans the per-point work (layout, printing,
        extraction, statistics) out over a process pool; the per-point
        seeds are derived with a process-stable hash, so the records are
        identical to the serial ones in any order.
        """
        if workers is not None and workers > 1 and len(points) > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker_study,
                initargs=(self,),
            ) as pool:
                futures = [
                    pool.submit(_tdp_record_worker, point, bins) for point in points
                ]
                return [future.result() for future in futures]
        return [self.tdp_record(point, bins=bins) for point in points]

    # -- operation-suite Monte-Carlo twins -------------------------------------------------

    def response_surface(
        self,
        operation_name: str,
        n_wordlines: int,
        simulators: Optional[OperationSimulators] = None,
        delta: float = 0.05,
    ) -> OperationResponseSurface:
        """The operation's calibrated (Rvar, Cvar) response surface (cached).

        Calibration costs a handful of full simulations per (operation,
        array size, delta); everything downstream is vectorised over the
        sample batch, which is the "batched where the analytical layer
        allows" path of the operation suite.  The surface is a
        deterministic function of the node alone, so which simulator
        bundle performs the calibration does not affect the cached values.
        """
        key = (operation_name, n_wordlines, delta)
        surface = self._surface_cache.get(key)
        if surface is None:
            if simulators is None:
                if self._operation_simulators is None:
                    self._operation_simulators = OperationSimulators(
                        self.node, n_bitline_pairs=self.doe.n_bitline_pairs
                    )
                simulators = self._operation_simulators
            surface = calibrate_response_surface(
                create_operation(operation_name), simulators, n_wordlines, delta=delta
            )
            self._surface_cache[key] = surface
        return surface

    def operation_sigma_rows(
        self,
        operation_name: str,
        n_wordlines: int = 64,
        simulators: Optional[OperationSimulators] = None,
        delta: float = 0.05,
    ) -> List[OperationSigmaRow]:
        """Table IV's twin for one operation: σ of the relative impact (%).

        The batched LPE Monte-Carlo provides the per-sample (Rvar, Cvar)
        of the bit line — and, from the same seeded draw, the Rvar of the
        VSS rail, which is what the margins couple to — exactly as for the
        read-time study; the calibrated response surface maps the whole
        batch to per-sample impacts in one vectorised evaluation, and the
        rows report the distribution's σ per option and overlay budget.
        """
        surface = self.response_surface(
            operation_name, n_wordlines, simulators=simulators, delta=delta
        )
        rows: List[OperationSigmaRow] = []
        for point in self.doe.monte_carlo_points(n_wordlines=n_wordlines):
            variations, rails = self.column_variation_samples_batch(point)
            impacts = surface.change_percent(
                variations.rvar, variations.cvar, rails.rvar
            )
            summary = SummaryStatistics.from_samples(tuple(float(v) for v in impacts))
            rows.append(
                OperationSigmaRow(
                    operation=operation_name,
                    array_label=point.array_label,
                    option_name=point.option_name,
                    overlay_three_sigma_nm=point.overlay_three_sigma_nm,
                    sigma_percent=summary.std,
                )
            )
        return rows

    def sigma_rows(
        self,
        operation_name: str,
        n_wordlines: int = 64,
        workers: Optional[int] = None,
    ) -> List[OperationSigmaRow]:
        """Impact-σ rows of any operation, in one uniform row type.

        ``read`` goes through the paper's analytical tdp formula (the
        Table IV path, batched and pool-parallelisable); the other
        operations go through their calibrated response surfaces.  Either
        way the result is a list of :class:`OperationSigmaRow`, which is
        what the declarative API's ``monte_carlo`` experiments consume.
        """
        if operation_name == "read":
            return [
                OperationSigmaRow(
                    operation="read",
                    array_label=row.array_label,
                    option_name=row.option_name,
                    overlay_three_sigma_nm=row.overlay_three_sigma_nm,
                    sigma_percent=row.sigma_percent,
                )
                for row in self.table4(n_wordlines=n_wordlines, workers=workers)
            ]
        return self.operation_sigma_rows(operation_name, n_wordlines=n_wordlines)

    @classmethod
    def from_spec(cls, spec) -> "MonteCarloTdpStudy":
        """Build a Monte-Carlo study from an
        :class:`~repro.core.spec.ExperimentSpec` (sample count and seed
        come from the spec's operation/execution sections).  Prefer
        :func:`repro.api.run`; this hook exists for callers that need the
        study object itself."""
        return cls(
            spec.technology.build(),
            doe=spec.array.to_doe(),
            n_samples=spec.operation.samples,
            seed=spec.execution.seed,
        )

    # -- paper experiments ------------------------------------------------------------------

    def figure5(
        self,
        n_wordlines: int = 64,
        overlay_three_sigma_nm: float = 8.0,
        bins: int = 30,
        workers: Optional[int] = None,
    ) -> List[MonteCarloTdpRecord]:
        """Fig. 5: tdp distributions of the three options at 8 nm OL, n = 64."""
        points = []
        for option_name in self.doe.option_names:
            overlay = (
                overlay_three_sigma_nm if option_name.upper().startswith("LE") else None
            )
            points.append(
                DOEPoint(
                    n_wordlines=n_wordlines,
                    option_name=option_name,
                    overlay_three_sigma_nm=overlay,
                )
            )
        return self.tdp_records(points, bins=bins, workers=workers)

    def table4(
        self, n_wordlines: int = 64, workers: Optional[int] = None
    ) -> List[TdpSigmaRow]:
        """Table IV: tdp standard deviation per option and OL budget."""
        points = self.doe.monte_carlo_points(n_wordlines=n_wordlines)
        records = self.tdp_records(points, workers=workers)
        return [
            TdpSigmaRow(
                array_label=point.array_label,
                option_name=point.option_name,
                overlay_three_sigma_nm=point.overlay_three_sigma_nm,
                sigma_percent=record.sigma_percent,
            )
            for point, record in zip(points, records)
        ]

    def overlay_sensitivity(
        self,
        option_name: str = "LELELE",
        n_wordlines: int = 64,
        workers: Optional[int] = None,
    ) -> List[Tuple[float, float]]:
        """σ(tdp) versus overlay budget for one litho-etch option.

        The data behind the paper's conclusion that the OL budget is the
        decisive knob for LE3: returns ``(overlay_nm, sigma_percent)``
        pairs over the DOE's overlay sweep.
        """
        points = [
            DOEPoint(
                n_wordlines=n_wordlines,
                option_name=option_name,
                overlay_three_sigma_nm=budget,
            )
            for budget in self.doe.overlay_budgets_nm
        ]
        records = self.tdp_records(points, workers=workers)
        return [
            (point.overlay_three_sigma_nm, record.sigma_percent)
            for point, record in zip(points, records)
        ]
