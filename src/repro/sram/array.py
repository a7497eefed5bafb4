"""SRAM read-path circuit builder.

Builds the transistor-level circuit the paper simulates: a bit-line pair
realised as extracted RC ladders, the (off) precharge circuit at the
periphery end, the accessed 6T cell at the far end — the worst-case read
position — including its VSS return path through the metal1 VSS rail, and
an ideally driven word line.

The circuit is deliberately a *column* model: the paper fixes the word
length at 10 bit-line pairs only to keep the central pair free of array
edge effects during extraction; electrically each column reads
independently, so one extracted central column is what gets simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..circuit.elements import Capacitor, PiecewiseLinear, Resistor, VoltageSource
from ..circuit.netlist import Circuit
from ..technology.node import OperatingConditions, TechnologyNode
from ..technology.transistors import SRAMTransistorSet
from .bitline import BitlineLadder, BitlineSpec, build_bitline_ladder
from .cell import CellNodes, SRAMCellCircuit, build_cell
from .precharge import PrechargeCircuit, build_precharge
from .sense_amp import SenseAmplifier


#: Name of the resistor that models the accessed cell's VSS return path.
VSS_RAIL = "rvss_rail"


class ArrayCircuitError(ValueError):
    """Raised when a read circuit cannot be built."""


@dataclass(frozen=True)
class ReadCircuitSpec:
    """Everything needed to build one read-path circuit.

    Parameters
    ----------
    n_cells:
        Number of word lines on the column (the ``n`` of the paper).
    bitline, bitline_bar:
        Electrical specs of the two bit lines (possibly distorted by
        patterning).
    vss_rail_resistance_ohm:
        Resistance of the VSS return path from the accessed cell back to
        the array-edge strap (scales with ``n``; carries the SADP
        anti-correlation effect).
    devices:
        The 6T cell device set.
    conditions:
        Supply / word-line / precharge voltages and the sense sensitivity.
    stored_value:
        Logic value stored on the Q (BL-side) node; 0 discharges BL.
    wordline_delay_s, wordline_rise_s:
        Word-line activation waveform parameters.
    segments:
        RC-ladder sections per bit line (``None`` → automatic).
    """

    n_cells: int
    bitline: BitlineSpec
    bitline_bar: BitlineSpec
    vss_rail_resistance_ohm: float
    devices: SRAMTransistorSet
    conditions: OperatingConditions
    stored_value: int = 0
    wordline_delay_s: float = 2e-12
    wordline_rise_s: float = 4e-12
    segments: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ArrayCircuitError("the column needs at least one cell")
        if self.vss_rail_resistance_ohm <= 0.0:
            raise ArrayCircuitError("the VSS rail resistance must be positive")
        if self.stored_value not in (0, 1):
            raise ArrayCircuitError("stored_value must be 0 or 1")
        if self.wordline_delay_s < 0.0 or self.wordline_rise_s <= 0.0:
            raise ArrayCircuitError("word-line timing must be non-negative / positive")


@dataclass
class SRAMReadCircuit:
    """A built read-path circuit plus the bookkeeping the harness needs."""

    spec: ReadCircuitSpec
    circuit: Circuit
    sense: SenseAmplifier
    wordline_node: str
    bitline_ladder: BitlineLadder
    bitline_bar_ladder: BitlineLadder
    cell: SRAMCellCircuit
    precharge: PrechargeCircuit
    initial_voltages: Dict[str, float] = field(default_factory=dict)


def build_read_circuit(spec: ReadCircuitSpec) -> SRAMReadCircuit:
    """Assemble the read-path circuit described by ``spec``."""
    conditions = spec.conditions
    vdd = conditions.vdd_v
    vwl = conditions.effective_wordline_voltage_v
    vpre = conditions.effective_precharge_voltage_v

    circuit = Circuit(title=f"sram-read n={spec.n_cells}")

    # Supplies and word line.
    circuit.add(VoltageSource.dc("vdd", "vdd", "0", vdd))
    wordline_wave = PiecewiseLinear(
        points=(
            (0.0, 0.0),
            (spec.wordline_delay_s, 0.0),
            (spec.wordline_delay_s + spec.wordline_rise_s, vwl),
        )
    )
    circuit.add(VoltageSource("vwl", "wl", "0", wordline_wave))

    # Bit-line ladders.
    bitline_ladder = build_bitline_ladder(spec.bitline, prefix="bl", segments=spec.segments)
    bitline_bar_ladder = build_bitline_ladder(
        spec.bitline_bar, prefix="blb", segments=spec.segments
    )
    circuit.add_all(bitline_ladder.elements)
    circuit.add_all(bitline_bar_ladder.elements)

    # Precharge circuit at the periphery end (off during the read).
    precharge = build_precharge(
        name="pch",
        bitline_node=bitline_ladder.near_node,
        bitline_bar_node=bitline_bar_ladder.near_node,
        vdd_node="vdd",
        n_cells=spec.n_cells,
        vdd_v=vdd,
        device=spec.devices.pull_up,
    )
    circuit.add_all(precharge.elements)

    # VSS return path of the accessed cell: metal1 rail back to the strap.
    circuit.add(Resistor(VSS_RAIL, "vss_cell", "0", spec.vss_rail_resistance_ohm))

    # The accessed cell at the far end of the column (worst-case position).
    cell_nodes = CellNodes(
        bitline=bitline_ladder.far_node,
        bitline_bar=bitline_bar_ladder.far_node,
        wordline="wl",
        vdd="vdd",
        vss="vss_cell",
        internal_q="q",
        internal_qb="qb",
    )
    cell = build_cell("cell", cell_nodes, devices=spec.devices)
    circuit.add_all(cell.elements)

    # Sense amplifier observes the periphery ends.
    sense = SenseAmplifier(
        sensitivity_v=conditions.sense_amp_sensitivity_v,
        bitline_node=bitline_ladder.near_node,
        bitline_bar_node=bitline_bar_ladder.near_node,
    )

    # Initial conditions: bit lines precharged, cell holding its value,
    # word line low, VSS rail quiescent.
    initial_voltages: Dict[str, float] = {"vdd": vdd, "wl": 0.0, "vss_cell": 0.0}
    for node in bitline_ladder.node_names + bitline_bar_ladder.node_names:
        initial_voltages[node] = vpre
    initial_voltages[precharge.elements[0].positive] = vdd  # precharge enable
    initial_voltages.update(cell.initial_conditions(vdd, spec.stored_value))

    return SRAMReadCircuit(
        spec=spec,
        circuit=circuit,
        sense=sense,
        wordline_node="wl",
        bitline_ladder=bitline_ladder,
        bitline_bar_ladder=bitline_bar_ladder,
        cell=cell,
        precharge=precharge,
        initial_voltages=initial_voltages,
    )
