"""Static noise margins of the 6T cell via DC butterfly curves.

Hold and read static noise margins (SNM) of the variation-extracted cell,
computed with the classic Seevinck largest-square method:

1. the cross-coupled loop is broken by driving one internal node with a
   swept DC source (:func:`repro.circuit.dc.dc_sweep` provides the
   continuation) and recording the other — one voltage-transfer curve per
   orientation;
2. the two curves form the butterfly plot; each lobe's largest inscribed
   square is found by matching points of the two curves along the
   45-degree diagonal (equal ``x + y``), where the square's corners sit on
   the curves and its side is the x-distance between them;
3. the SNM is the smaller lobe's square side.

Interconnect patterning enters through the extracted column parasitics:

* the **VSS and VDD rail resistances** — the cell's crowbar / read current
  drops real voltage across them, compressing the VTC swing (this is what
  makes the *hold* SNM degrade as patterning variation grows);
* the **bit-line resistances** (read mode only) — the accessed cell sees
  the precharged bit lines through the extracted series resistance, which
  sets how hard the read disturb fights the pull-downs.

The analyzer composes a :class:`~repro.sram.read_path.ReadPathSimulator`
for the geometry stack, so campaigns mixing operations extract each
layout once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..circuit.batch import PreparedWork, SweepLaneSpec
from ..circuit.dc import NewtonOptions
from ..circuit.elements import Resistor, VoltageSource
from ..circuit.netlist import Circuit
from ..technology.node import TechnologyNode
from .cell import CellNodes, build_cell
from .read_path import ColumnParasitics, ReadPathSimulator

#: The two supported butterfly modes.
MARGIN_MODES = ("hold", "read")


class MarginAnalysisError(RuntimeError):
    """Raised when a noise-margin analysis cannot be evaluated."""


@dataclass(frozen=True)
class ButterflyCurves:
    """The two voltage-transfer curves of one butterfly measurement.

    ``input_v`` is the swept grid; ``qb_of_q`` is V(QB) with Q driven,
    ``q_of_qb`` is V(Q) with QB driven (both sampled on the same grid).
    """

    mode: str
    input_v: np.ndarray
    qb_of_q: np.ndarray
    q_of_qb: np.ndarray

    def lobe_sides_v(self) -> Tuple[float, float]:
        """Largest-square side of each butterfly lobe (Seevinck's method).

        Curve A is ``(u, qb_of_q(u))``; curve B is the mirrored second VTC
        ``(q_of_qb(u), u)``.  An axis-parallel square inscribed in a lobe
        touches one curve with its top-right corner and the other with its
        bottom-left corner; those two corners share the rotated coordinate
        ``x − y`` (both VTCs are monotone in it, so the matching is
        single-valued) and their separation along ``x + y`` is ``2·side``
        (each corner contributes ``side`` in both x and y).  Half the
        maximum positive separation is one lobe's square side, half the
        maximum negative separation the other's.
        """
        x_a = np.asarray(self.input_v, dtype=float)
        y_a = np.asarray(self.qb_of_q, dtype=float)
        x_b = np.asarray(self.q_of_qb, dtype=float)
        y_b = np.asarray(self.input_v, dtype=float)

        u_a = x_a - y_a                      # monotone increasing along A
        v_a = x_a + y_a
        u_b = x_b - y_b                      # monotone decreasing along B
        v_b = x_b + y_b
        order = np.argsort(u_b)
        u_b, v_b = u_b[order], v_b[order]

        lo = max(float(u_a.min()), float(u_b.min()))
        hi = min(float(u_a.max()), float(u_b.max()))
        if hi <= lo:
            return 0.0, 0.0
        grid = np.linspace(lo, hi, 4 * x_a.size)
        separation = np.interp(grid, u_a, v_a) - np.interp(grid, u_b, v_b)
        lobe_positive = float(max(np.max(separation), 0.0)) / 2.0
        lobe_negative = float(max(np.max(-separation), 0.0)) / 2.0
        return lobe_positive, lobe_negative

    def snm_v(self) -> float:
        """The cell's SNM: the smaller lobe's largest-square side."""
        return min(self.lobe_sides_v())


@dataclass(frozen=True)
class MarginMeasurement:
    """Outcome of one noise-margin analysis."""

    n_cells: int
    label: str
    mode: str
    snm_v: float
    lobe1_v: float
    lobe2_v: float
    bitline_resistance_ohm: float
    bitline_bar_resistance_ohm: float
    vss_rail_resistance_ohm: float
    vdd_rail_resistance_ohm: float


class SRAMMarginAnalyzer:
    """Hold / read SNM of the DOE columns under patterning variability.

    Parameters mirror :class:`ReadPathSimulator`; ``geometry`` optionally
    supplies a read simulator whose layout / extraction caches are shared.
    """

    #: Sweep points per VTC (5 mV at Vdd = 0.7 V).
    SWEEP_POINTS = 141

    #: Newton knobs of the butterfly sweeps (see WritePathSimulator).
    DC_SWEEP_NEWTON = NewtonOptions(max_iterations=200, abs_tolerance_a=1e-8)

    def __init__(
        self,
        node: TechnologyNode,
        n_bitline_pairs: int = 10,
        max_segments: int = 64,
        vss_strap_interval_cells: int = 256,
        geometry: Optional[ReadPathSimulator] = None,
    ) -> None:
        if geometry is not None and (
            geometry.node is not node
            or geometry.n_bitline_pairs != n_bitline_pairs
            or geometry.vss_strap_interval_cells != vss_strap_interval_cells
        ):
            raise MarginAnalysisError(
                "the geometry donor must share the node, array word length "
                "and VSS strap interval"
            )
        self.node = node
        self.n_bitline_pairs = n_bitline_pairs
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

    def column_parasitics(self, n_cells: int, extraction=None) -> ColumnParasitics:
        return self.geometry.column_parasitics(n_cells, extraction)

    # -- circuit construction ------------------------------------------------------

    def _build_butterfly_circuit(
        self,
        column: ColumnParasitics,
        mode: str,
        driven_node: str,
    ) -> Tuple[Circuit, Dict[str, float]]:
        """The broken-loop cell circuit with ``driven_node`` behind vsweep."""
        if mode not in MARGIN_MODES:
            raise MarginAnalysisError(f"mode must be one of {MARGIN_MODES}")
        if driven_node not in ("q", "qb"):
            raise MarginAnalysisError("the driven node must be 'q' or 'qb'")
        conditions = self.node.operating_conditions
        vdd = conditions.vdd_v
        vwl = conditions.effective_wordline_voltage_v if mode == "read" else 0.0
        vpre = conditions.effective_precharge_voltage_v

        circuit = Circuit(title=f"sram-{mode}-snm")
        circuit.add(VoltageSource.dc("vdd", "vdd", "0", vdd))
        circuit.add(VoltageSource.dc("vwl", "wl", "0", vwl))
        # The bit lines are held at the precharge level behind their full
        # extracted series resistance (the ladder collapses to it in DC).
        circuit.add(VoltageSource.dc("vbl", "bl_src", "0", vpre))
        circuit.add(
            Resistor("rbl", "bl_src", "bl", column.bitline.total_resistance_ohm)
        )
        circuit.add(VoltageSource.dc("vblb", "blb_src", "0", vpre))
        circuit.add(
            Resistor("rblb", "blb_src", "blb", column.bitline_bar.total_resistance_ohm)
        )
        circuit.add(
            Resistor("rvss_rail", "vss_cell", "0", column.vss_rail_resistance_ohm)
        )
        if column.vdd_rail_resistance_ohm > 0.0:
            circuit.add(
                Resistor("rvdd_rail", "vdd", "vdd_cell", column.vdd_rail_resistance_ohm)
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
        circuit.add(VoltageSource.dc("vsweep", driven_node, "0", 0.0))

        other = "qb" if driven_node == "q" else "q"
        initial = {
            "vdd": vdd,
            cell_vdd: vdd,
            "wl": vwl,
            "bl_src": vpre,
            "blb_src": vpre,
            "bl": vpre,
            "blb": vpre,
            "vss_cell": 0.0,
            driven_node: 0.0,
            other: vdd,
        }
        return circuit, initial

    # -- butterfly measurement -----------------------------------------------------

    def _prepare_butterfly(
        self,
        n_cells: int,
        column: Optional[ColumnParasitics] = None,
        mode: str = "hold",
        points: Optional[int] = None,
    ) -> PreparedWork:
        """Both VTC sweeps of the butterfly plot, as two prepared lanes."""
        chosen = column if column is not None else self.column_parasitics(n_cells)
        n_points = points if points is not None else self.SWEEP_POINTS
        vdd = self.node.operating_conditions.vdd_v
        grid = np.linspace(0.0, vdd, n_points)

        lanes = []
        recorded_nodes = []
        for driven, recorded in (("q", "qb"), ("qb", "q")):
            circuit, initial = self._build_butterfly_circuit(chosen, mode, driven)
            lanes.append(
                SweepLaneSpec(
                    circuit,
                    "vsweep",
                    grid,
                    initial_voltages=initial,
                    options=self.DC_SWEEP_NEWTON,
                )
            )
            recorded_nodes.append(recorded)

        def finish(sweeps) -> ButterflyCurves:
            curves = [
                sweep.voltage(recorded)
                for sweep, recorded in zip(sweeps, recorded_nodes)
            ]
            return ButterflyCurves(
                mode=mode, input_v=grid, qb_of_q=curves[0], q_of_qb=curves[1]
            )

        return PreparedWork(lanes=lanes, finish=finish)

    def butterfly(
        self,
        n_cells: int,
        column: Optional[ColumnParasitics] = None,
        mode: str = "hold",
        points: Optional[int] = None,
    ) -> ButterflyCurves:
        """Trace both VTCs of the butterfly plot for one column."""
        return self._prepare_butterfly(
            n_cells, column, mode=mode, points=points
        ).run_scalar()

    def prepare_measure(
        self,
        n_cells: int,
        column: Optional[ColumnParasitics] = None,
        mode: str = "hold",
        label: str = "nominal",
        points: Optional[int] = None,
    ) -> PreparedWork:
        """One SNM measurement as prepared work (butterfly + largest square)."""
        chosen = column if column is not None else self.column_parasitics(n_cells)

        def measurement(curves: ButterflyCurves) -> MarginMeasurement:
            lobe1, lobe2 = curves.lobe_sides_v()
            return MarginMeasurement(
                n_cells=n_cells,
                label=label,
                mode=mode,
                snm_v=min(lobe1, lobe2),
                lobe1_v=lobe1,
                lobe2_v=lobe2,
                bitline_resistance_ohm=chosen.bitline.total_resistance_ohm,
                bitline_bar_resistance_ohm=chosen.bitline_bar.total_resistance_ohm,
                vss_rail_resistance_ohm=chosen.vss_rail_resistance_ohm,
                vdd_rail_resistance_ohm=chosen.vdd_rail_resistance_ohm,
            )

        return self._prepare_butterfly(
            n_cells, chosen, mode=mode, points=points
        ).mapped(measurement)
