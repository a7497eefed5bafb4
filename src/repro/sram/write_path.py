"""High-level SRAM write simulation harness.

The write twin of :mod:`repro.sram.read_path`: the bit-line pair is driven
to the write values by scaled write drivers at the periphery end, the word
line ramps, and the accessed cell at the far end of the column — the
worst-case write position — flips through its pass gates.  Two figures of
merit come out:

* **write delay** — word-line assert (50 % of the ramp) to the internal
  ``q``/``qb`` crossover, from a transient simulation;
* **write margin** — the bit-line trip voltage from a DC continuation
  sweep: the low-going bit line is swept from Vdd down to 0 and the margin
  is the source voltage at which the cell flips.  A large margin means the
  cell writes even with a partial bit-line swing (driver non-ideality
  slack); extra bit-line resistance between driver and cell eats into it.

The simulator reuses the read path's geometry stack (layouts, nominal and
printed extractions, column parasitics) by composing a
:class:`~repro.sram.read_path.ReadPathSimulator`, so a campaign mixing
read and write operations extracts each layout exactly once.  Like the
read harness it builds one circuit per column shape and binds every
further column to that circuit's
:class:`~repro.sram.read_path.ColumnRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..circuit.batch import PreparedWork, TransientLaneSpec
from ..circuit.dc import NewtonOptions, dc_sweep
from ..circuit.elements import PiecewiseLinear, Resistor, VoltageSource
from ..circuit.mosfet import MOSFET
from ..circuit.netlist import Circuit
from ..circuit.transient import TransientSolver
from ..technology.node import TechnologyNode
from .array import VSS_RAIL
from .bitline import BitlineLadder, build_bitline_ladder
from .cell import CellNodes, build_cell
from .precharge import build_precharge, precharge_fins
from .read_path import (
    ColumnParasitics,
    ColumnRecord,
    ReadPathSimulator,
    transient_window,
)


class WriteSimulationError(RuntimeError):
    """Raised when a write simulation cannot produce a measurement."""


@dataclass(frozen=True)
class WriteMeasurement:
    """Outcome of one transient write simulation."""

    n_cells: int
    label: str
    write_value: int
    write_delay_s: float
    wordline_time_s: float
    flip_time_s: float
    bitline_resistance_ohm: float
    bitline_capacitance_f: float
    vss_rail_resistance_ohm: float
    stop_reason: str


@dataclass(frozen=True)
class WriteMarginMeasurement:
    """Outcome of one DC write-margin sweep."""

    n_cells: int
    label: str
    write_value: int
    #: Bit-line source voltage at which the cell flips: the driver slack.
    margin_v: float
    flipped: bool
    vdd_v: float

    def margin_fraction(self) -> float:
        """Margin as a fraction of the supply."""
        return self.margin_v / self.vdd_v


@dataclass
class SRAMWriteCircuit:
    """A built write-path circuit plus the bookkeeping the harness needs."""

    circuit: Circuit
    wordline_node: str
    q_node: str
    qb_node: str
    write_value: int
    initial_voltages: Dict[str, float]
    bitline_ladder: BitlineLadder
    bitline_bar_ladder: BitlineLadder


class WritePathSimulator:
    """Simulates worst-case writes of the DOE columns.

    Parameters mirror :class:`ReadPathSimulator`; ``geometry`` optionally
    supplies a read simulator whose layout / extraction / parasitics
    caches are shared (the default builds a private one).
    """

    def __init__(
        self,
        node: TechnologyNode,
        n_bitline_pairs: int = 10,
        max_segments: int = 64,
        vss_strap_interval_cells: int = 256,
        transient_method: Optional[str] = None,
        geometry: Optional[ReadPathSimulator] = None,
    ) -> None:
        if transient_method not in (None, "backward-euler", "trapezoidal"):
            raise WriteSimulationError(
                "transient_method must be 'backward-euler' or 'trapezoidal'"
            )
        if geometry is not None and (
            geometry.node is not node
            or geometry.n_bitline_pairs != n_bitline_pairs
            or geometry.vss_strap_interval_cells != vss_strap_interval_cells
        ):
            raise WriteSimulationError(
                "the geometry donor must share the node, array word length "
                "and VSS strap interval"
            )
        self.node = node
        self.n_bitline_pairs = n_bitline_pairs
        self.max_segments = max_segments
        self._transient_method = transient_method
        self.geometry = (
            geometry
            if geometry is not None
            else ReadPathSimulator(
                node,
                n_bitline_pairs=n_bitline_pairs,
                max_segments=max_segments,
                vss_strap_interval_cells=vss_strap_interval_cells,
            )
        )
        # Nominal DC write margins keyed by (n_cells, write_value).
        self._nominal_margin_cache: Dict[Tuple[int, int], WriteMarginMeasurement] = {}
        # Column records keyed by (n_cells, write_value), as in the read
        # simulator.
        self._column_records: Dict[Tuple[int, int], ColumnRecord] = {}

    # -- extraction plumbing (delegated to the shared geometry stack) ---------------

    def column_parasitics(
        self, n_cells: int, extraction=None
    ) -> ColumnParasitics:
        return self.geometry.column_parasitics(n_cells, extraction)

    # -- circuit construction ------------------------------------------------------

    def _driver_fins(self, n_cells: int) -> int:
        """Write-driver strength, scaled with the array like the precharge."""
        return precharge_fins(n_cells)

    def build_circuit(
        self,
        n_cells: int,
        column: ColumnParasitics,
        write_value: int = 0,
    ) -> SRAMWriteCircuit:
        """Assemble the write-path circuit for one column.

        The cell initially stores ``1 - write_value`` so the write flips
        it; the bit lines start already driven to the write values (the
        drivers settle before the word line asserts, as in a real write
        cycle).
        """
        if write_value not in (0, 1):
            raise WriteSimulationError("write_value must be 0 or 1")
        conditions = self.node.operating_conditions
        devices = self.node.sram_devices
        vdd = conditions.vdd_v
        vwl = conditions.effective_wordline_voltage_v

        circuit = Circuit(title=f"sram-write n={n_cells}")
        circuit.add(VoltageSource.dc("vdd", "vdd", "0", vdd))
        wordline_wave = PiecewiseLinear(
            points=((0.0, 0.0), (2e-12, 0.0), (6e-12, vwl))
        )
        circuit.add(VoltageSource("vwl", "wl", "0", wordline_wave))

        segments = min(n_cells, self.max_segments)
        bitline_ladder = build_bitline_ladder(
            column.bitline, prefix="bl", segments=segments
        )
        bitline_bar_ladder = build_bitline_ladder(
            column.bitline_bar, prefix="blb", segments=segments
        )
        circuit.add_all(bitline_ladder.elements)
        circuit.add_all(bitline_bar_ladder.elements)

        # Precharge devices are off during the write but their junction
        # capacitance still loads the periphery ends (same as the read).
        precharge = build_precharge(
            name="pch",
            bitline_node=bitline_ladder.near_node,
            bitline_bar_node=bitline_bar_ladder.near_node,
            vdd_node="vdd",
            n_cells=n_cells,
            vdd_v=vdd,
            device=devices.pull_up,
        )
        circuit.add_all(precharge.elements)

        # Write drivers at the periphery end: an NMOS pulls the low-going
        # bit line to VSS, a PMOS holds the other at VDD.  Gates tie to the
        # static supplies (the drivers are already enabled at t = 0).
        fins = self._driver_fins(n_cells)
        low_node = (
            bitline_ladder.near_node if write_value == 0 else bitline_bar_ladder.near_node
        )
        high_node = (
            bitline_bar_ladder.near_node if write_value == 0 else bitline_ladder.near_node
        )
        circuit.add(
            MOSFET(
                "wdrv_pd",
                drain=low_node,
                gate="vdd",
                source="0",
                parameters=devices.pull_down,
                nfins=fins,
            )
        )
        circuit.add(
            MOSFET(
                "wdrv_pu",
                drain=high_node,
                gate="0",
                source="vdd",
                parameters=devices.pull_up,
                nfins=fins,
            )
        )

        # VSS return path of the accessed cell.
        circuit.add(Resistor(VSS_RAIL, "vss_cell", "0", column.vss_rail_resistance_ohm))

        cell_nodes = CellNodes(
            bitline=bitline_ladder.far_node,
            bitline_bar=bitline_bar_ladder.far_node,
            wordline="wl",
            vdd="vdd",
            vss="vss_cell",
            internal_q="q",
            internal_qb="qb",
        )
        cell = build_cell("cell", cell_nodes, devices=devices)
        circuit.add_all(cell.elements)

        initial_voltages: Dict[str, float] = {"vdd": vdd, "wl": 0.0, "vss_cell": 0.0}
        low_nodes, high_nodes = (
            (bitline_ladder.node_names, bitline_bar_ladder.node_names)
            if write_value == 0
            else (bitline_bar_ladder.node_names, bitline_ladder.node_names)
        )
        for node_name in low_nodes:
            initial_voltages[node_name] = 0.0
        for node_name in high_nodes:
            initial_voltages[node_name] = vdd
        initial_voltages[precharge.enable_node] = vdd
        initial_voltages.update(cell.initial_conditions(vdd, 1 - write_value))

        return SRAMWriteCircuit(
            circuit=circuit,
            wordline_node="wl",
            q_node="q",
            qb_node="qb",
            write_value=write_value,
            initial_voltages=initial_voltages,
            bitline_ladder=bitline_ladder,
            bitline_bar_ladder=bitline_bar_ladder,
        )

    # -- transient write -----------------------------------------------------------

    def prepare_simulate_column(
        self,
        n_cells: int,
        column: ColumnParasitics,
        label: str,
        write_value: int = 0,
    ) -> PreparedWork:
        """One write measurement as prepared work (a single transient lane).

        The circuit is built once per (``n_cells``, ``write_value``); every
        further column of that shape only binds its ladder and rail values
        to the cached :class:`~repro.sram.read_path.ColumnRecord`.
        """
        key = (n_cells, write_value)
        record = self._column_records.get(key)
        if record is None:
            built = self.build_circuit(n_cells, column, write_value)
            record = self._column_records.setdefault(key, ColumnRecord(built))
        write_circuit = record.built
        options = transient_window(
            self.node, column, self.node.operating_conditions.vdd_v, self._transient_method
        )
        solver = TransientSolver(record.bind(column), options=options)

        conditions = self.node.operating_conditions
        vdd = conditions.vdd_v
        q, qb = write_circuit.q_node, write_circuit.qb_node
        sign = 1.0 if write_value == 0 else -1.0
        target = 0.8 * vdd

        def flip_complete(_time_s: float, voltages: Mapping[str, float]) -> bool:
            return sign * (voltages[qb] - voltages[q]) >= target

        lane = TransientLaneSpec(
            solver,
            initial_voltages=write_circuit.initial_voltages,
            stop_condition=flip_complete,
        )

        def finish(results) -> WriteMeasurement:
            (result,) = results
            wordline_time = result.crossing_time_s(
                write_circuit.wordline_node,
                conditions.effective_wordline_voltage_v / 2.0,
                direction="rising",
            )
            flip_time = result.crossover_time_s(q, qb)
            if wordline_time is None:
                raise WriteSimulationError(
                    "the word line never rose; check the waveform setup"
                )
            if flip_time is None:
                raise WriteSimulationError(
                    f"the cell never flipped within {options.t_stop_s:.3e} s "
                    f"(label={label!r}, n={n_cells})"
                )
            return WriteMeasurement(
                n_cells=n_cells,
                label=label,
                write_value=write_value,
                write_delay_s=flip_time - wordline_time,
                wordline_time_s=wordline_time,
                flip_time_s=flip_time,
                bitline_resistance_ohm=column.bitline.total_resistance_ohm,
                bitline_capacitance_f=column.bitline.total_capacitance_f,
                vss_rail_resistance_ohm=column.vss_rail_resistance_ohm,
                stop_reason=result.stop_reason,
            )

        return PreparedWork(lanes=[lane], finish=finish)

    # -- DC write margin -----------------------------------------------------------

    #: Sweep points of the write-margin continuation (10 mV at Vdd = 0.7 V).
    MARGIN_SWEEP_POINTS = 71

    #: Newton knobs of the DC sweeps.  The absolute tolerance sits above the
    #: finite-difference noise floor of the device Jacobians (nA versus the
    #: µA-scale currents of the trip region), where the default 1e-9 A can
    #: become unreachable for heavily distorted columns.
    DC_SWEEP_NEWTON = NewtonOptions(max_iterations=200, abs_tolerance_a=1e-8)

    def measure_margin(
        self,
        n_cells: int,
        column: Optional[ColumnParasitics] = None,
        write_value: int = 0,
        label: str = "nominal",
        points: Optional[int] = None,
    ) -> WriteMarginMeasurement:
        """DC write margin: the bit-line trip voltage of the continuation sweep.

        With the word line on and the opposite bit line held at Vdd, the
        write-side bit-line source is swept from Vdd down to 0 through the
        extracted bit-line resistance.  The margin is the source voltage at
        which the stored value flips — the slack left for a non-ideal
        driver.
        """
        if write_value not in (0, 1):
            raise WriteSimulationError("write_value must be 0 or 1")
        chosen = column if column is not None else self.column_parasitics(n_cells)
        vdd = self.node.operating_conditions.vdd_v
        circuit, initial = self._build_margin_circuit(n_cells, chosen, write_value)
        n_points = points if points is not None else self.MARGIN_SWEEP_POINTS
        sweep = dc_sweep(
            circuit,
            "vwrite",
            np.linspace(vdd, 0.0, n_points),
            initial_voltages=initial,
            options=self.DC_SWEEP_NEWTON,
        )
        # The flip shows on the stored node: Q falls for a write 0, rises
        # for a write 1.
        watch, direction = ("q", "falling") if write_value == 0 else ("q", "rising")
        trip = sweep.crossing_value(watch, vdd / 2.0, direction=direction)
        flipped = trip is not None
        return WriteMarginMeasurement(
            n_cells=n_cells,
            label=label,
            write_value=write_value,
            margin_v=float(trip) if flipped else 0.0,
            flipped=flipped,
            vdd_v=vdd,
        )

    def _build_margin_circuit(
        self, n_cells: int, chosen: ColumnParasitics, write_value: int
    ) -> Tuple[Circuit, Dict[str, float]]:
        """The write-margin DC circuit (swept source ``vwrite``) and its guess."""
        conditions = self.node.operating_conditions
        vdd = conditions.vdd_v

        circuit = Circuit(title=f"sram-write-margin n={n_cells}")
        circuit.add(VoltageSource.dc("vdd", "vdd", "0", vdd))
        circuit.add(
            VoltageSource.dc("vwl", "wl", "0", conditions.effective_wordline_voltage_v)
        )
        # The written-low side sees the swept source behind the full
        # bit-line resistance (the ladder collapses to its series R in DC);
        # the high side is held at Vdd the same way.
        low_spec, high_spec = (
            (chosen.bitline, chosen.bitline_bar)
            if write_value == 0
            else (chosen.bitline_bar, chosen.bitline)
        )
        low_cell_node = "bl" if write_value == 0 else "blb"
        high_cell_node = "blb" if write_value == 0 else "bl"
        circuit.add(VoltageSource.dc("vwrite", "wsrc", "0", vdd))
        circuit.add(Resistor("rbl_low", "wsrc", low_cell_node, low_spec.total_resistance_ohm))
        circuit.add(VoltageSource.dc("vhold", "hsrc", "0", vdd))
        circuit.add(
            Resistor("rbl_high", "hsrc", high_cell_node, high_spec.total_resistance_ohm)
        )
        circuit.add(Resistor("rvss_rail", "vss_cell", "0", chosen.vss_rail_resistance_ohm))
        if chosen.vdd_rail_resistance_ohm > 0.0:
            circuit.add(
                Resistor("rvdd_rail", "vdd", "vdd_cell", chosen.vdd_rail_resistance_ohm)
            )
            cell_vdd = "vdd_cell"
        else:
            cell_vdd = "vdd"
        cell_nodes = CellNodes(
            bitline="bl",
            bitline_bar="blb",
            wordline="wl",
            vdd=cell_vdd,
            vss="vss_cell",
            internal_q="q",
            internal_qb="qb",
        )
        cell = build_cell("cell", cell_nodes, devices=self.node.sram_devices)
        circuit.add_all(cell.elements)

        stored = 1 - write_value
        initial = {
            "vdd": vdd,
            cell_vdd: vdd,
            "wl": conditions.effective_wordline_voltage_v,
            "wsrc": vdd,
            "hsrc": vdd,
            "bl": vdd,
            "blb": vdd,
            "vss_cell": 0.0,
        }
        initial.update(cell.initial_conditions(vdd, stored))
        return circuit, initial

    def measure_nominal_margin(
        self, n_cells: int, write_value: int = 0
    ) -> WriteMarginMeasurement:
        """Nominal DC write margin, memoized per ``(n_cells, write_value)``."""
        key = (n_cells, write_value)
        cached = self._nominal_margin_cache.get(key)
        if cached is None:
            cached = self.measure_margin(n_cells, write_value=write_value)
            self._nominal_margin_cache[key] = cached
        return cached
