"""High-level SRAM read simulation harness.

This module wires the whole flow together for one column of the DOE
arrays: generate the layout, (optionally) print it with a patterning
option, extract the bit-line pair and the VSS rail, build the read-path
circuit and run the transient until the sense amplifier fires.  The
figure of merit is the paper's ``td`` — the time from word-line activation
to the moment the differential bit-line voltage reaches the
sense-amplifier sensitivity — and the derived ``tdp`` penalty ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..circuit.batch import PreparedWork, TransientLaneSpec
from ..circuit.mna import MNAAssembler, MNAError, TopologyRecord
from ..circuit.transient import TransientOptions, TransientSolver
from ..extraction.field import ExtractionResult
from ..extraction.lpe import ParameterizedLPE
from ..layout.array import SRAMArrayLayout, generate_array_layout
from ..patterning.base import ParameterValues, PatterningOption
from ..technology.node import TechnologyNode
from .array import VSS_RAIL, ReadCircuitSpec, SRAMReadCircuit, build_read_circuit
from .bitline import BitlineSpec, ladder_values, supply_rail_resistance_ohm
from .cell import bitline_loading_per_unselected_cell_f


class ReadSimulationError(RuntimeError):
    """Raised when a read simulation cannot produce a td measurement."""


@dataclass(frozen=True)
class ReadMeasurement:
    """Outcome of one read simulation."""

    n_cells: int
    label: str
    td_s: float
    wordline_time_s: float
    sense_time_s: float
    bitline_resistance_ohm: float
    bitline_capacitance_f: float
    vss_rail_resistance_ohm: float
    stop_reason: str

    def penalty_vs(self, nominal: "ReadMeasurement") -> float:
        """Read-time penalty ``tdp`` relative to a nominal measurement.

        Returned as a ratio (1.0 = no penalty), matching the paper's
        definition ``td(varied) / td(nominal)``.
        """
        if nominal.td_s <= 0.0:
            raise ReadSimulationError("nominal td must be positive")
        return self.td_s / nominal.td_s


@dataclass
class ColumnParasitics:
    """Extracted per-column electrical quantities feeding the circuits.

    The read circuit uses the bit-line pair and the VSS return path; the
    write and noise-margin circuits additionally see the VDD rail
    resistance (supply droop under the cell's crowbar / read current).
    """

    bitline: BitlineSpec
    bitline_bar: BitlineSpec
    vss_rail_resistance_ohm: float
    vdd_rail_resistance_ohm: float = 0.0

    def scaled(self, rvar: float, cvar: float, rail_rvar: float) -> "ColumnParasitics":
        """This column with explicit variation ratios applied.

        ``rvar``/``cvar`` scale both bit lines' wire R and C; ``rail_rvar``
        scales both supply-rail resistances (under patterning the VSS and
        VDD rails distort together — they are drawn on the same metal1
        tracks as the bit lines).
        """
        return ColumnParasitics(
            bitline=self.bitline.scaled(rvar, cvar),
            bitline_bar=self.bitline_bar.scaled(rvar, cvar),
            vss_rail_resistance_ohm=self.vss_rail_resistance_ohm * rail_rvar,
            vdd_rail_resistance_ohm=self.vdd_rail_resistance_ohm * rail_rvar,
        )


class ColumnRecord:
    """One built column circuit, its topology record and where a column binds.

    Read and write columns of one shape (cell count — which fixes the
    segment count and the precharge and driver sizes — and stored or
    written value) differ only in their two ladders' R/C values and the
    VSS rail resistance.  :meth:`bind` writes those for another column
    into the record's value arrays; no netlist is built, validated or
    indexed.  ``built`` is the read or write circuit the record was built
    from (its node names and initial voltages serve every binding).
    """

    def __init__(self, built) -> None:
        self.built = built
        self.topology = topology = TopologyRecord(built.circuit)
        r_slot = {r.name: k for k, r in enumerate(topology.resistors)}
        c_slot = {c.name: k for k, c in enumerate(topology.capacitors)}
        ladders = (built.bitline_ladder, built.bitline_bar_ladder)
        self.segments = ladders[0].segments
        self._ladder_slots = [
            (
                [r_slot[e.name] for e in ladder.elements if e.name in r_slot],
                [c_slot[e.name] for e in ladder.elements if e.name in c_slot],
            )
            for ladder in ladders
        ]
        self._rail_slot = r_slot[VSS_RAIL]

    def bind(self, column: "ColumnParasitics") -> MNAAssembler:
        """The assembler of ``column``; raises ``MNAError`` if it does not fit."""
        resistances = self.topology.resistances.copy()
        capacitances = self.topology.capacitances.copy()
        for spec, (r_slots, c_slots) in zip(
            (column.bitline, column.bitline_bar), self._ladder_slots
        ):
            if spec.n_cells < self.segments:
                raise MNAError(
                    f"a {spec.n_cells}-cell bit line cannot bind to a "
                    f"{self.segments}-section column record"
                )
            resistance, node_capacitances = ladder_values(spec, self.segments)
            resistances[r_slots] = resistance
            capacitances[c_slots] = node_capacitances
        resistances[self._rail_slot] = column.vss_rail_resistance_ohm
        return self.topology.bind(resistances, capacitances)


def transient_window(
    node: TechnologyNode,
    column: ColumnParasitics,
    swing_v: float,
    method: Optional[str],
) -> TransientOptions:
    """A safe simulation window derived from the column's time constants.

    ``swing_v`` is the bit-line swing the measurement waits for: the
    sense-amp sensitivity for a read, Vdd for a write (whose far-end node
    has to recover through the full ladder resistance).  The
    current-limited estimate of that swing is padded for the RC tail, the
    VSS bounce and the word-line delay; the stop condition ends the run
    at the event, so generosity costs nothing.  ``method`` picks the
    integrator (backward Euler when None) and nothing else.
    """
    conditions = node.operating_conditions
    pass_gate = node.sram_devices.pass_gate
    drive_a = max(
        pass_gate.on_current_a(conditions.vdd_v, node.sram_devices.pass_gate_fins),
        1e-9,
    )
    total_c = column.bitline.total_capacitance_f
    estimate_s = total_c * swing_v / drive_a
    rc_s = column.bitline.total_resistance_ohm * total_c
    t_stop = 20.0 * (estimate_s + rc_s) + 100e-12
    dt_max = max(min(t_stop / 200.0, 10e-12), 2e-13)
    return TransientOptions(
        t_stop_s=t_stop,
        dt_initial_s=min(1e-13, dt_max / 10.0),
        dt_max_s=dt_max,
        method=method if method is not None else "backward-euler",
    )


class ReadPathSimulator:
    """Simulates worst-case reads of the DOE columns.

    Parameters
    ----------
    node:
        Technology node (devices, metal stack, operating conditions,
        variation assumptions).
    n_bitline_pairs:
        Word length of the arrays (10 in the paper); only the central pair
        is simulated but the full pattern is extracted so edge effects do
        not contaminate it.
    max_segments:
        Maximum RC-ladder sections per bit line.
    vss_strap_interval_cells:
        Distance (in cells) between VSS straps along the array: the VSS
        return path of the accessed cell runs on metal1 only up to the
        nearest strap, so its resistance saturates at
        ``strap_interval × R_vss_per_cell`` for long arrays.  256 cells is
        a conservative strap pitch for an un-meshed test macro.
    transient_method:
        Integration method (``"backward-euler"``, the default, or
        ``"trapezoidal"``).  It changes only the integrator: the time
        window and step limits are always derived from the column (see
        :func:`transient_window`), so method comparisons are not
        confounded by different dt knobs.

    The simulator builds and measures one given column; which column is
    measured (nominal, printed or scaled) is decided by
    :class:`repro.core.operations.Operation`.
    """

    def __init__(
        self,
        node: TechnologyNode,
        n_bitline_pairs: int = 10,
        max_segments: int = 64,
        vss_strap_interval_cells: int = 256,
        transient_method: Optional[str] = None,
    ) -> None:
        if vss_strap_interval_cells < 1:
            raise ReadSimulationError("the VSS strap interval must be at least one cell")
        if transient_method not in (None, "backward-euler", "trapezoidal"):
            raise ReadSimulationError(
                "transient_method must be 'backward-euler' or 'trapezoidal'"
            )
        self.node = node
        self.n_bitline_pairs = n_bitline_pairs
        self.max_segments = max_segments
        self.vss_strap_interval_cells = vss_strap_interval_cells
        self._transient_method = transient_method
        self._lpe = ParameterizedLPE(node)
        self._layout_cache: Dict[int, SRAMArrayLayout] = {}
        self._nominal_extraction_cache: Dict[int, ExtractionResult] = {}
        # Printed-pattern extractions keyed by (n_cells, option, corner):
        # corner sweeps (Fig. 4 + Table III share the same worst corners)
        # re-print and re-extract identical layouts otherwise.
        self._printed_extraction_cache: Dict[
            Tuple[int, str, Tuple[Tuple[str, float], ...]], ExtractionResult
        ] = {}
        # Column records keyed by (n_cells, stored value): every corner of
        # one column shape binds its values to the same record.
        self._column_records: Dict[Tuple[int, int], ColumnRecord] = {}

    #: Printed extractions kept before the cache resets (a full paper DOE
    #: sweep touches |sizes| x |options| = 12 distinct corners).
    PRINTED_CACHE_SIZE = 64

    def adopt_shared_caches(self, donor: "ReadPathSimulator") -> None:
        """Share the geometry-derived caches with another simulator.

        Layouts, extractions and column records depend only on the node
        and the array geometry, so simulators that differ in simulation
        settings (VSS strap interval, transient method, stored value) can
        reuse them; column records also need the same segment cap.  Used
        by the campaign engine so scenario variants extract each layout
        once.
        """
        if donor.node is not self.node or donor.n_bitline_pairs != self.n_bitline_pairs:
            raise ReadSimulationError(
                "cache sharing requires the same node and array word length"
            )
        self._lpe = donor._lpe
        self._layout_cache = donor._layout_cache
        self._nominal_extraction_cache = donor._nominal_extraction_cache
        self._printed_extraction_cache = donor._printed_extraction_cache
        if donor.max_segments == self.max_segments:
            self._column_records = donor._column_records

    # -- layout & extraction helpers ------------------------------------------------

    @property
    def lpe(self) -> ParameterizedLPE:
        """The patterning-aware extraction driver used by this simulator."""
        return self._lpe

    def layout_for(self, n_cells: int) -> SRAMArrayLayout:
        if n_cells not in self._layout_cache:
            self._layout_cache[n_cells] = generate_array_layout(
                n_wordlines=n_cells,
                n_bitline_pairs=self.n_bitline_pairs,
                node=self.node,
            )
        return self._layout_cache[n_cells]

    def nominal_extraction(self, n_cells: int) -> ExtractionResult:
        if n_cells not in self._nominal_extraction_cache:
            layout = self.layout_for(n_cells)
            self._nominal_extraction_cache[n_cells] = self._lpe.extract_pattern(
                layout.metal1_pattern
            )
        return self._nominal_extraction_cache[n_cells]

    def printed_extraction(
        self,
        n_cells: int,
        option: PatterningOption,
        parameters: ParameterValues,
    ) -> ExtractionResult:
        """Extraction of the column printed by ``option`` at ``parameters``.

        Memoized per ``(n_cells, option, corner)`` so the studies that visit
        the same worst-case corner repeatedly (Fig. 4 and Table III share
        corners) print and extract each layout once.
        """
        key = (
            n_cells,
            option.name,
            tuple(sorted((name, float(value)) for name, value in parameters.items())),
        )
        cached = self._printed_extraction_cache.get(key)
        if cached is None:
            layout = self.layout_for(n_cells)
            patterned = option.apply(layout.metal1_pattern, parameters)
            cached = self._lpe.extract_pattern(patterned.printed)
            if len(self._printed_extraction_cache) >= self.PRINTED_CACHE_SIZE:
                self._printed_extraction_cache.clear()
            self._printed_extraction_cache[key] = cached
        return cached

    def _column_nets(self, layout: SRAMArrayLayout) -> Tuple[str, str, str, str]:
        """Net names of the central column's BL, BLB, VSS and VDD rails."""
        return layout.central_column_nets()

    def column_parasitics(
        self, n_cells: int, extraction: Optional[ExtractionResult] = None
    ) -> ColumnParasitics:
        """Build the column's electrical description from an extraction.

        ``extraction`` defaults to the nominal one; pass a printed-pattern
        extraction to obtain the patterning-distorted column.
        """
        layout = self.layout_for(n_cells)
        chosen = extraction if extraction is not None else self.nominal_extraction(n_cells)
        bl_net, blb_net, vss_net, vdd_net = self._column_nets(layout)
        cell_length = layout.cell.cell_length_nm
        frontend = bitline_loading_per_unselected_cell_f(self.node.sram_devices)

        bitline = BitlineSpec.from_extraction(
            chosen[bl_net], n_cells, cell_length, frontend
        )
        bitline_bar = BitlineSpec.from_extraction(
            chosen[blb_net], n_cells, cell_length, frontend
        )
        vss_span_cells = min(n_cells, self.vss_strap_interval_cells)
        vss_resistance = supply_rail_resistance_ohm(
            chosen[vss_net], vss_span_cells, cell_length
        )
        vdd_resistance = supply_rail_resistance_ohm(
            chosen[vdd_net], vss_span_cells, cell_length
        )
        return ColumnParasitics(
            bitline=bitline,
            bitline_bar=bitline_bar,
            vss_rail_resistance_ohm=vss_resistance,
            vdd_rail_resistance_ohm=vdd_resistance,
        )

    # -- circuit construction and simulation --------------------------------------------

    def build_circuit(
        self,
        n_cells: int,
        column: ColumnParasitics,
        stored_value: int = 0,
    ) -> SRAMReadCircuit:
        spec = ReadCircuitSpec(
            n_cells=n_cells,
            bitline=column.bitline,
            bitline_bar=column.bitline_bar,
            vss_rail_resistance_ohm=column.vss_rail_resistance_ohm,
            devices=self.node.sram_devices,
            conditions=self.node.operating_conditions,
            stored_value=stored_value,
            segments=min(n_cells, self.max_segments),
        )
        return build_read_circuit(spec)

    def prepare_simulate_column(
        self,
        n_cells: int,
        column: ColumnParasitics,
        label: str,
        stored_value: int = 0,
    ) -> PreparedWork:
        """One read measurement as prepared work (a single transient lane).

        The circuit is built once per (``n_cells``, ``stored_value``); every
        further column of that shape only binds its ladder and rail values
        to the cached :class:`ColumnRecord`.
        """
        key = (n_cells, stored_value)
        record = self._column_records.get(key)
        if record is None:
            built = self.build_circuit(n_cells, column, stored_value)
            record = self._column_records.setdefault(key, ColumnRecord(built))
        read_circuit = record.built
        options = transient_window(
            self.node,
            column,
            self.node.operating_conditions.sense_amp_sensitivity_v,
            self._transient_method,
        )
        solver = TransientSolver(record.bind(column), options=options)
        lane = TransientLaneSpec(
            solver,
            initial_voltages=read_circuit.initial_voltages,
            stop_condition=read_circuit.sense.stop_condition(),
        )

        def finish(results) -> ReadMeasurement:
            (result,) = results
            conditions = self.node.operating_conditions
            wordline_time = result.crossing_time_s(
                read_circuit.wordline_node,
                conditions.effective_wordline_voltage_v / 2.0,
                direction="rising",
            )
            sense_time = read_circuit.sense.firing_time_s(result)
            if wordline_time is None:
                raise ReadSimulationError(
                    "the word line never rose; check the waveform setup"
                )
            if sense_time is None:
                raise ReadSimulationError(
                    f"the sense threshold was never reached within "
                    f"{options.t_stop_s:.3e} s (label={label!r}, n={n_cells})"
                )
            return ReadMeasurement(
                n_cells=n_cells,
                label=label,
                td_s=sense_time - wordline_time,
                wordline_time_s=wordline_time,
                sense_time_s=sense_time,
                bitline_resistance_ohm=column.bitline.total_resistance_ohm,
                bitline_capacitance_f=column.bitline.total_capacitance_f,
                vss_rail_resistance_ohm=column.vss_rail_resistance_ohm,
                stop_reason=result.stop_reason,
            )

        return PreparedWork(lanes=[lane], finish=finish)
