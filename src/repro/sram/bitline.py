"""Distributed bit-line (and supply-rail) RC models.

The bit line of an ``n``-word-line column is a long metal1 wire loaded by
``n`` off pass-gates.  For simulation it is represented as an RC ladder:
``segments`` sections, each carrying the wire resistance, the wire
capacitance (ground + coupling, both effectively to AC ground because the
bit-line neighbours are the VSS/VDD rails) and the front-end loading of
the cells it spans.

The per-cell R and C values come straight from the extraction
(:class:`~repro.extraction.field.WireParasitics`), so any patterning
distortion propagates into the ladder automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..circuit.elements import Capacitor, CircuitElement, Resistor
from ..extraction.field import WireParasitics


class BitlineModelError(ValueError):
    """Raised for inconsistent bit-line models."""


@dataclass(frozen=True)
class BitlineSpec:
    """Electrical description of one bit line before laddering.

    Parameters
    ----------
    n_cells:
        Number of cells (word lines) along the bit line.
    resistance_per_cell_ohm:
        Wire resistance contributed by one cell pitch.
    capacitance_per_cell_f:
        Wire capacitance (ground + coupling) contributed by one cell pitch.
    frontend_capacitance_per_cell_f:
        Off pass-gate junction capacitance per cell (the ``C_FE`` term).
    """

    n_cells: int
    resistance_per_cell_ohm: float
    capacitance_per_cell_f: float
    frontend_capacitance_per_cell_f: float

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise BitlineModelError("a bit line needs at least one cell")
        if self.resistance_per_cell_ohm <= 0.0:
            raise BitlineModelError("per-cell resistance must be positive")
        if self.capacitance_per_cell_f < 0.0 or self.frontend_capacitance_per_cell_f < 0.0:
            raise BitlineModelError("per-cell capacitances cannot be negative")

    @property
    def total_resistance_ohm(self) -> float:
        return self.resistance_per_cell_ohm * self.n_cells

    @property
    def total_capacitance_f(self) -> float:
        return (
            self.capacitance_per_cell_f + self.frontend_capacitance_per_cell_f
        ) * self.n_cells

    @property
    def wire_capacitance_f(self) -> float:
        return self.capacitance_per_cell_f * self.n_cells

    def elmore_delay_s(self) -> float:
        """Distributed-line Elmore delay (0.5·R·C) of the bare bit line."""
        return 0.5 * self.total_resistance_ohm * self.total_capacitance_f

    @classmethod
    def from_extraction(
        cls,
        parasitics: WireParasitics,
        n_cells: int,
        cell_length_nm: float,
        frontend_capacitance_per_cell_f: float,
    ) -> "BitlineSpec":
        """Build a spec from extracted per-unit-length wire parasitics."""
        if cell_length_nm <= 0.0:
            raise BitlineModelError("cell length must be positive")
        return cls(
            n_cells=n_cells,
            resistance_per_cell_ohm=parasitics.resistance_per_nm * cell_length_nm,
            capacitance_per_cell_f=parasitics.capacitance_per_nm.total * cell_length_nm,
            frontend_capacitance_per_cell_f=frontend_capacitance_per_cell_f,
        )

    def scaled(self, rvar: float, cvar: float) -> "BitlineSpec":
        """Apply relative R/C variation (ratios) to the *wire* parasitics.

        The front-end loading is a device quantity and is not affected by
        interconnect patterning.
        """
        if rvar <= 0.0 or cvar <= 0.0:
            raise BitlineModelError("variation ratios must be positive")
        return BitlineSpec(
            n_cells=self.n_cells,
            resistance_per_cell_ohm=self.resistance_per_cell_ohm * rvar,
            capacitance_per_cell_f=self.capacitance_per_cell_f * cvar,
            frontend_capacitance_per_cell_f=self.frontend_capacitance_per_cell_f,
        )


@dataclass
class BitlineLadder:
    """The RC-ladder realisation of a bit line.

    Attributes
    ----------
    node_names:
        The ladder nodes from the periphery (``index 0``, where precharge
        and sense amplifier sit) to the far end (where the accessed cell
        sits), ``segments + 1`` entries.
    elements:
        The resistors and capacitors of the ladder.
    """

    spec: BitlineSpec
    prefix: str
    segments: int
    node_names: List[str] = field(default_factory=list)
    elements: List[CircuitElement] = field(default_factory=list)

    @property
    def near_node(self) -> str:
        """Periphery-side node (precharge / sense amplifier)."""
        return self.node_names[0]

    @property
    def far_node(self) -> str:
        """Far-end node (worst-case accessed cell position)."""
        return self.node_names[-1]


def ladder_values(spec: BitlineSpec, segments: int) -> Tuple[float, List[float]]:
    """Section resistance and node capacitances of a ``segments``-section ladder.

    The one formula behind :func:`build_bitline_ladder` and the binding of
    read and write columns to their topology records.  The end nodes carry
    half a section's capacitance each (pi sections approximating a
    distributed line), interior nodes a full section's.
    """
    cells_per_segment = spec.n_cells / segments
    resistance = spec.resistance_per_cell_ohm * cells_per_segment
    capacitance = (
        spec.capacitance_per_cell_f + spec.frontend_capacitance_per_cell_f
    ) * cells_per_segment
    half = capacitance / 2.0
    return resistance, [half] + [capacitance] * (segments - 1) + [half]


def build_bitline_ladder(
    spec: BitlineSpec,
    prefix: str,
    segments: Optional[int] = None,
    max_segments: int = 64,
) -> BitlineLadder:
    """Discretise a bit line into an RC ladder.

    Parameters
    ----------
    spec:
        The electrical bit-line description.
    prefix:
        Node/element name prefix (``"bl"``, ``"blb"``...).
    segments:
        Number of ladder sections; defaults to ``min(n_cells, max_segments)``.
    max_segments:
        Cap on the automatic segment count — 64 sections model even a
        1024-cell line to well under a percent of delay error while keeping
        the matrices small.
    """
    if segments is None:
        segments = min(spec.n_cells, max_segments)
    if segments < 1:
        raise BitlineModelError("the ladder needs at least one segment")
    if segments > spec.n_cells:
        segments = spec.n_cells

    resistance_per_segment, node_capacitances = ladder_values(spec, segments)
    node_names = [f"{prefix}_{index}" for index in range(segments + 1)]
    elements: List[CircuitElement] = [
        Capacitor(f"{prefix}_c0", node_names[0], "0", node_capacitances[0])
    ]
    for index in range(segments):
        near, far = node_names[index], node_names[index + 1]
        elements.append(Resistor(f"{prefix}_r{index}", near, far, resistance_per_segment))
        elements.append(
            Capacitor(f"{prefix}_c{index + 1}", far, "0", node_capacitances[index + 1])
        )
    return BitlineLadder(
        spec=spec,
        prefix=prefix,
        segments=segments,
        node_names=node_names,
        elements=elements,
    )


def supply_rail_resistance_ohm(
    parasitics: WireParasitics, n_cells: int, cell_length_nm: float
) -> float:
    """Total resistance of a supply rail spanning ``n_cells`` cell pitches.

    Used for the VSS return path of the accessed cell: the paper's SADP
    analysis hinges on the anti-correlation between the bit-line and
    VSS-rail resistances, which only shows up when the VSS return path is
    part of the simulated netlist.
    """
    if n_cells < 1 or cell_length_nm <= 0.0:
        raise BitlineModelError("need at least one cell and a positive cell length")
    return parasitics.resistance_per_nm * cell_length_nm * n_cells
