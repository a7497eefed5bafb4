"""The SRAM operation suite: one registry over read / write / margin analyses.

The paper's pipeline measures a single figure of merit (the read time td);
this module generalises it into a family of *operations* that share one
layout → patterning → extraction → circuit stack:

========== ======================================== ======= =========
name       measurement                              metric  unit
========== ======================================== ======= =========
read       word-line assert → sense-amp fire        delay   seconds
write      word-line assert → internal q/qb flip    delay   seconds
hold_snm   hold static noise margin (butterfly)     margin  volts
read_snm   read static noise margin (butterfly)     margin  volts
========== ======================================== ======= =========

Every operation implements one method of the small :class:`Operation`
interface, :meth:`~Operation.prepare_column`: how one given column is
measured, as :class:`~repro.circuit.batch.PreparedWork` finishing to a
uniform :class:`OperationMeasurement`.  Which column is measured is
derived once, in the base class: the nominal column (memoised per
bundle), the column printed at a patterning corner, or the nominal column
scaled by explicit variation ratios.  That is the only way a measurement
is built: the batched tier stacks the prepared lanes of many items into
one joint solve, and the one-lane ``measure_*`` entry points are
``prepare_*(...).run_scalar()``.  The campaign engine, the worst-case
study and the Monte-Carlo layer can therefore iterate over operations the
same way they iterate over patterning options and array sizes.

:class:`OperationSimulators` bundles the three simulators behind one
shared geometry stack — layouts, nominal and printed extractions are
computed once per column no matter how many operations visit it.

:class:`OperationResponseSurface` is the analytical layer's hook for the
Monte-Carlo twins: a first-order response surface in (Rvar, Cvar),
calibrated from a handful of full simulations, maps a whole batch of
extracted variation samples to per-operation impacts in one vectorised
evaluation (the same trick the paper plays with eq. 4 for the read time).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..circuit.batch import PreparedWork
from ..patterning.base import ParameterValues, PatterningOption
from ..sram.margins import SRAMMarginAnalyzer
from ..sram.read_path import ColumnParasitics, ReadPathSimulator
from ..sram.write_path import WritePathSimulator
from ..technology.node import TechnologyNode

#: Operation names in registry order.
OPERATION_NAMES = ("read", "write", "hold_snm", "read_snm")


class OperationError(RuntimeError):
    """Raised for unknown operations or inconsistent measurements."""


@dataclass(frozen=True)
class OperationMeasurement:
    """Uniform outcome of one operation measurement.

    ``value`` is the operation's primary scalar (a delay in seconds or a
    margin in volts, per ``unit``); the remaining fields carry whatever
    the underlying harness measured (zeros where not applicable, e.g. the
    DC margins have no transient timestamps).
    """

    operation: str
    n_cells: int
    label: str
    value: float
    unit: str
    td_s: float = 0.0
    wordline_time_s: float = 0.0
    sense_time_s: float = 0.0
    stop_reason: str = "dc"
    bitline_resistance_ohm: float = 0.0
    bitline_capacitance_f: float = 0.0
    vss_rail_resistance_ohm: float = 0.0


class OperationSimulators:
    """The three column simulators behind one shared geometry stack.

    The read simulator owns the layout / extraction / parasitics caches;
    the write simulator and the margin analyzer compose it, so a campaign
    chunk mixing operations extracts each printed layout exactly once.
    Construction is lazy — a read-only workload never builds the others.

    ``nominal_measurements`` memoises :meth:`Operation.prepare_nominal`
    per ``(operation, n_cells, stored value)``; the static margins ignore
    the stored value, so theirs is always 0.  It is the bundle's own:
    measurements depend on its simulation settings, so
    :meth:`adopt_shared_caches` does not share it.
    """

    def __init__(
        self,
        node: TechnologyNode,
        n_bitline_pairs: int = 10,
        max_segments: int = 64,
        vss_strap_interval_cells: int = 256,
        transient_method: Optional[str] = None,
    ) -> None:
        self.node = node
        self.n_bitline_pairs = n_bitline_pairs
        self.max_segments = max_segments
        self.vss_strap_interval_cells = vss_strap_interval_cells
        self.transient_method = transient_method
        self._read: Optional[ReadPathSimulator] = None
        self._write: Optional[WritePathSimulator] = None
        self._margins: Optional[SRAMMarginAnalyzer] = None
        self.nominal_measurements: Dict[Tuple[str, int, int], OperationMeasurement] = {}

    @property
    def read(self) -> ReadPathSimulator:
        if self._read is None:
            self._read = ReadPathSimulator(
                self.node,
                n_bitline_pairs=self.n_bitline_pairs,
                max_segments=self.max_segments,
                vss_strap_interval_cells=self.vss_strap_interval_cells,
                transient_method=self.transient_method,
            )
        return self._read

    @property
    def write(self) -> WritePathSimulator:
        if self._write is None:
            self._write = WritePathSimulator(
                self.node,
                n_bitline_pairs=self.n_bitline_pairs,
                max_segments=self.max_segments,
                vss_strap_interval_cells=self.vss_strap_interval_cells,
                transient_method=self.transient_method,
                geometry=self.read,
            )
        return self._write

    @property
    def margins(self) -> SRAMMarginAnalyzer:
        if self._margins is None:
            self._margins = SRAMMarginAnalyzer(
                self.node,
                n_bitline_pairs=self.n_bitline_pairs,
                vss_strap_interval_cells=self.vss_strap_interval_cells,
                geometry=self.read,
            )
        return self._margins

    def adopt_shared_caches(self, donor: "OperationSimulators") -> None:
        """Share the donor bundle's geometry caches (see ReadPathSimulator)."""
        self.read.adopt_shared_caches(donor.read)


class Operation(abc.ABC):
    """One SRAM operation: a named measurement over the shared stack.

    A subclass says only how one given column is measured
    (:meth:`prepare_column`).  This class derives which column that is —
    nominal, printed by a patterning option, or scaled by explicit
    variation ratios — memoises the nominal, and provides the one-lane
    ``measure_*`` entry points by solving the prepared work with the
    one-lane drivers.
    """

    #: Registry name (e.g. ``"write"``).
    name: str = ""
    #: ``"delay"`` (higher is worse) or ``"margin"`` (lower is worse).
    metric: str = "delay"
    #: Unit of the primary value (``"s"`` or ``"V"``).
    unit: str = "s"

    @abc.abstractmethod
    def prepare_column(
        self,
        sims: OperationSimulators,
        n_cells: int,
        column: ColumnParasitics,
        label: str,
        stored_value: int = 0,
    ) -> PreparedWork:
        """The measurement of one given column, as prepared work."""

    def prepare_nominal(
        self, sims: OperationSimulators, n_cells: int, stored_value: int = 0
    ) -> PreparedWork:
        """The nominal (un-distorted) column; a memo hit carries zero lanes.

        Memoised on ``sims``: corner sweeps compare many printed columns
        against the same nominal, which therefore simulates once.
        """
        key = (self.name, n_cells, stored_value)
        cached = sims.nominal_measurements.get(key)
        if cached is not None:
            return PreparedWork(lanes=[], finish=lambda _results: cached)

        def memoize(measurement: OperationMeasurement) -> OperationMeasurement:
            sims.nominal_measurements[key] = measurement
            return measurement

        column = sims.read.column_parasitics(n_cells)
        return self.prepare_column(
            sims, n_cells, column, "nominal", stored_value=stored_value
        ).mapped(memoize)

    def prepare_with_patterning(
        self,
        sims: OperationSimulators,
        n_cells: int,
        option: PatterningOption,
        parameters: ParameterValues,
        stored_value: int = 0,
        label: Optional[str] = None,
    ) -> PreparedWork:
        """The column printed by ``option`` at ``parameters``."""
        extraction = sims.read.printed_extraction(n_cells, option, parameters)
        column = sims.read.column_parasitics(n_cells, extraction)
        return self.prepare_column(
            sims,
            n_cells,
            column,
            label if label is not None else option.name,
            stored_value=stored_value,
        )

    def prepare_value_with_variation(
        self,
        sims: OperationSimulators,
        n_cells: int,
        rvar: float,
        cvar: float,
        rail_rvar: float = 1.0,
    ) -> PreparedWork:
        """Primary value with the nominal column scaled by explicit ratios.

        ``rvar``/``cvar`` scale the bit-line wire parasitics, ``rail_rvar``
        the supply-rail resistances.  The response-surface calibration uses
        this fast path (no printing, no extraction); the high-sigma engine
        stacks many of these into one batched solve when it promotes
        surrogate-uncertain samples.
        """
        column = sims.read.column_parasitics(n_cells).scaled(rvar, cvar, rail_rvar)
        return self.prepare_column(sims, n_cells, column, "scaled").mapped(
            lambda measurement: measurement.value
        )

    def measure_nominal(
        self, sims: OperationSimulators, n_cells: int, stored_value: int = 0
    ) -> OperationMeasurement:
        """The nominal measurement for one column."""
        return self.prepare_nominal(sims, n_cells, stored_value=stored_value).run_scalar()

    def measure_with_patterning(
        self,
        sims: OperationSimulators,
        n_cells: int,
        option: PatterningOption,
        parameters: ParameterValues,
        stored_value: int = 0,
        label: Optional[str] = None,
    ) -> OperationMeasurement:
        """The measurement with the column printed by ``option``."""
        return self.prepare_with_patterning(
            sims, n_cells, option, parameters, stored_value=stored_value, label=label
        ).run_scalar()

    def value_with_variation(
        self,
        sims: OperationSimulators,
        n_cells: int,
        rvar: float,
        cvar: float,
        rail_rvar: float = 1.0,
    ) -> float:
        """The primary value of :meth:`prepare_value_with_variation`."""
        return self.prepare_value_with_variation(
            sims, n_cells, rvar, cvar, rail_rvar=rail_rvar
        ).run_scalar()


class ReadOperation(Operation):
    """The paper's read-time measurement, wrapped as an operation."""

    name = "read"
    metric = "delay"
    unit = "s"

    @staticmethod
    def _wrap(measurement) -> OperationMeasurement:
        return OperationMeasurement(
            operation="read",
            n_cells=measurement.n_cells,
            label=measurement.label,
            value=measurement.td_s,
            unit="s",
            td_s=measurement.td_s,
            wordline_time_s=measurement.wordline_time_s,
            sense_time_s=measurement.sense_time_s,
            stop_reason=measurement.stop_reason,
            bitline_resistance_ohm=measurement.bitline_resistance_ohm,
            bitline_capacitance_f=measurement.bitline_capacitance_f,
            vss_rail_resistance_ohm=measurement.vss_rail_resistance_ohm,
        )

    def prepare_column(self, sims, n_cells, column, label, stored_value=0):
        return sims.read.prepare_simulate_column(
            n_cells, column, label, stored_value=stored_value
        ).mapped(self._wrap)


class WriteOperation(Operation):
    """Write delay: word-line assert to the internal q/qb flip."""

    name = "write"
    metric = "delay"
    unit = "s"

    @staticmethod
    def _wrap(measurement) -> OperationMeasurement:
        return OperationMeasurement(
            operation="write",
            n_cells=measurement.n_cells,
            label=measurement.label,
            value=measurement.write_delay_s,
            unit="s",
            td_s=measurement.write_delay_s,
            wordline_time_s=measurement.wordline_time_s,
            sense_time_s=measurement.flip_time_s,
            stop_reason=measurement.stop_reason,
            bitline_resistance_ohm=measurement.bitline_resistance_ohm,
            bitline_capacitance_f=measurement.bitline_capacitance_f,
            vss_rail_resistance_ohm=measurement.vss_rail_resistance_ohm,
        )

    def prepare_column(self, sims, n_cells, column, label, stored_value=0):
        return sims.write.prepare_simulate_column(
            n_cells, column, label, write_value=stored_value
        ).mapped(self._wrap)


class _SnmOperation(Operation):
    """Shared implementation of the two butterfly-curve margins.

    The butterfly breaks the loop symmetrically; the stored value has no
    meaning for a static margin and is deliberately ignored.
    """

    metric = "margin"
    unit = "V"
    mode = "hold"

    def _wrap(self, measurement) -> OperationMeasurement:
        return OperationMeasurement(
            operation=self.name,
            n_cells=measurement.n_cells,
            label=measurement.label,
            value=measurement.snm_v,
            unit="V",
            stop_reason="dc",
            bitline_resistance_ohm=measurement.bitline_resistance_ohm,
            vss_rail_resistance_ohm=measurement.vss_rail_resistance_ohm,
        )

    def prepare_column(self, sims, n_cells, column, label, stored_value=0):
        return sims.margins.prepare_measure(
            n_cells, column, mode=self.mode, label=label
        ).mapped(self._wrap)

    def prepare_nominal(self, sims, n_cells, stored_value=0):
        # One memo entry per size, whatever stored value is asked for.
        return super().prepare_nominal(sims, n_cells)


class HoldSnmOperation(_SnmOperation):
    name = "hold_snm"
    mode = "hold"


class ReadSnmOperation(_SnmOperation):
    name = "read_snm"
    mode = "read"


_REGISTRY: Dict[str, Operation] = {
    op.name: op
    for op in (ReadOperation(), WriteOperation(), HoldSnmOperation(), ReadSnmOperation())
}


def ensure_operation(name: str, error: type = OperationError) -> str:
    """Validate an operation name, raising ``error`` when unknown.

    Single source of the unknown-operation complaint, shared by the
    registry lookup and the declarative spec layer (which raises
    :class:`~repro.core.spec.SpecError` instead).
    """
    if name not in _REGISTRY:
        raise error(f"unknown operation {name!r}; available: {OPERATION_NAMES}")
    return name


def create_operation(name: str) -> Operation:
    """Look an operation up by registry name."""
    return _REGISTRY[ensure_operation(name)]


ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class OperationResponseSurface:
    """First-order response surface of one operation in (Rvar, Cvar, rail Rvar).

    ``value ≈ base + d_rvar·(rvar−1) + d_cvar·(cvar−1) + d_rail·(rail−1)``
    with the partial derivatives calibrated by central differences on the
    full simulator.  This is the operation suite's analogue of the paper's
    analytical read-time formula: it turns a batch of extracted variation
    samples into per-sample impacts without one circuit solve per sample.
    The rail axis matters for the margins — the hold SNM couples to the
    supply rails, not to the bit-line wire parasitics.
    """

    operation: str
    n_cells: int
    base_value: float
    unit: str
    d_rvar: float
    d_cvar: float
    d_rail_rvar: float
    delta: float

    def values(
        self, rvar: ArrayLike, cvar: ArrayLike, rail_rvar: ArrayLike = 1.0
    ) -> ArrayLike:
        return (
            self.base_value
            + self.d_rvar * (np.asarray(rvar) - 1.0)
            + self.d_cvar * (np.asarray(cvar) - 1.0)
            + self.d_rail_rvar * (np.asarray(rail_rvar) - 1.0)
        )

    def change_percent(
        self, rvar: ArrayLike, cvar: ArrayLike, rail_rvar: ArrayLike = 1.0
    ) -> ArrayLike:
        """Relative change of the value versus nominal, in percent."""
        if self.base_value == 0.0:
            raise OperationError("the response surface base value must be nonzero")
        return (self.values(rvar, cvar, rail_rvar) / self.base_value - 1.0) * 100.0


def calibrate_response_surface(
    operation: Operation,
    sims: OperationSimulators,
    n_cells: int,
    delta: float = 0.05,
) -> OperationResponseSurface:
    """Fit the first-order surface with seven full simulations.

    One nominal plus two central-difference points at ``1 ± delta`` on
    each of the three axes; the result is deterministic, so callers can
    cache it per (operation, array size).
    """
    if not 0.0 < delta < 1.0:
        raise OperationError("the calibration delta must be within (0, 1)")
    base = operation.measure_nominal(sims, n_cells).value
    r_hi = operation.value_with_variation(sims, n_cells, 1.0 + delta, 1.0)
    r_lo = operation.value_with_variation(sims, n_cells, 1.0 - delta, 1.0)
    c_hi = operation.value_with_variation(sims, n_cells, 1.0, 1.0 + delta)
    c_lo = operation.value_with_variation(sims, n_cells, 1.0, 1.0 - delta)
    v_hi = operation.value_with_variation(sims, n_cells, 1.0, 1.0, 1.0 + delta)
    v_lo = operation.value_with_variation(sims, n_cells, 1.0, 1.0, 1.0 - delta)
    return OperationResponseSurface(
        operation=operation.name,
        n_cells=n_cells,
        base_value=base,
        unit=operation.unit,
        d_rvar=(r_hi - r_lo) / (2.0 * delta),
        d_cvar=(c_hi - c_lo) / (2.0 * delta),
        d_rail_rvar=(v_hi - v_lo) / (2.0 * delta),
        delta=delta,
    )
