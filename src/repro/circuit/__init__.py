"""SPICE-level circuit simulation substrate.

Modified-nodal-analysis assembly, Newton DC operating point, adaptive
backward-Euler / trapezoidal transient analysis, an alpha-power-law FinFET
compact model, waveform measurements and SPICE netlist I/O.
"""

from .dc import (
    ConvergenceError,
    DCResult,
    DCSweepResult,
    NewtonOptions,
    dc_operating_point,
    dc_sweep,
)
from .elements import (
    DC,
    Capacitor,
    CircuitElement,
    CurrentSource,
    ElementError,
    PiecewiseLinear,
    Pulse,
    Resistor,
    TwoTerminal,
    VoltageSource,
    Waveform,
)
from .mna import (
    DEFAULT_GMIN_S,
    CachedFactorSolver,
    MNAAssembler,
    MNAError,
    NonlinearStamp,
)
from .mosfet import MOSFET, OperatingPoint
from .netlist import Circuit, GROUND_NAMES, NetlistError, is_ground
from .spice_io import SpiceFormatError, read_spice, write_spice
from .transient import (
    StopCondition,
    TransientOptions,
    TransientSolver,
    run_transient,
)
from .waveform import MeasurementError, TransientResult

__all__ = [
    "Capacitor",
    "Circuit",
    "CircuitElement",
    "ConvergenceError",
    "CurrentSource",
    "DC",
    "DCResult",
    "DCSweepResult",
    "DEFAULT_GMIN_S",
    "ElementError",
    "GROUND_NAMES",
    "CachedFactorSolver",
    "MNAAssembler",
    "MNAError",
    "MOSFET",
    "MeasurementError",
    "NetlistError",
    "NewtonOptions",
    "NonlinearStamp",
    "OperatingPoint",
    "PiecewiseLinear",
    "Pulse",
    "Resistor",
    "SpiceFormatError",
    "StopCondition",
    "TransientOptions",
    "TransientResult",
    "TransientSolver",
    "TwoTerminal",
    "VoltageSource",
    "Waveform",
    "dc_operating_point",
    "dc_sweep",
    "is_ground",
    "read_spice",
    "run_transient",
    "write_spice",
]
