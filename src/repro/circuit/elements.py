"""Linear circuit elements and source waveforms.

Every element knows how to *stamp* itself into the MNA matrices provided
by :class:`repro.circuit.mna.MNAStamper`:

* resistors and capacitors stamp constant conductance / capacitance;
* independent sources stamp time-dependent right-hand-side entries (and an
  extra branch-current unknown for voltage sources);
* the nonlinear MOSFET lives in :mod:`repro.circuit.mosfet` and stamps a
  linearised companion model per Newton iteration.

Units are SI: ohm, farad, volt, ampere, second.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class ElementError(ValueError):
    """Raised for ill-defined circuit elements."""


class Waveform(abc.ABC):
    """A time-dependent source value."""

    @abc.abstractmethod
    def value_at(self, time_s: float) -> float:
        """Source value at ``time_s`` (seconds)."""


@dataclass(frozen=True)
class DC(Waveform):
    """A constant source value."""

    level: float = 0.0

    def value_at(self, time_s: float) -> float:
        return self.level


@dataclass(frozen=True)
class PiecewiseLinear(Waveform):
    """A piecewise-linear waveform defined by (time, value) breakpoints."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ElementError("a PWL waveform needs at least one point")
        times = [time for time, _value in self.points]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ElementError("PWL breakpoints must be in non-decreasing time order")

    def value_at(self, time_s: float) -> float:
        times = [time for time, _value in self.points]
        values = [value for _time, value in self.points]
        if time_s <= times[0]:
            return values[0]
        if time_s >= times[-1]:
            return values[-1]
        index = bisect.bisect_right(times, time_s) - 1
        t0, v0 = self.points[index]
        t1, v1 = self.points[index + 1]
        if t1 == t0:
            return v1
        fraction = (time_s - t0) / (t1 - t0)
        return v0 + fraction * (v1 - v0)


@dataclass(frozen=True)
class Pulse(Waveform):
    """A single or repeating pulse (SPICE-style PULSE source).

    Parameters follow the SPICE convention: initial value, pulsed value,
    delay, rise time, fall time, pulse width, period (0 = single pulse).
    """

    initial: float
    pulsed: float
    delay_s: float = 0.0
    rise_s: float = 1e-12
    fall_s: float = 1e-12
    width_s: float = 1e-9
    period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.rise_s < 0.0 or self.fall_s < 0.0 or self.width_s < 0.0:
            raise ElementError("pulse rise/fall/width cannot be negative")
        if self.period_s < 0.0:
            raise ElementError("pulse period cannot be negative")

    def value_at(self, time_s: float) -> float:
        local = time_s - self.delay_s
        if local < 0.0:
            return self.initial
        if self.period_s > 0.0:
            local = local % self.period_s
        if local < self.rise_s:
            return self.initial + (self.pulsed - self.initial) * (local / self.rise_s)
        local -= self.rise_s
        if local < self.width_s:
            return self.pulsed
        local -= self.width_s
        if local < self.fall_s:
            return self.pulsed + (self.initial - self.pulsed) * (local / self.fall_s)
        return self.initial


class CircuitElement(abc.ABC):
    """Common interface of all circuit elements."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ElementError("element name cannot be empty")
        self.name = name

    @abc.abstractmethod
    def nodes(self) -> Tuple[str, ...]:
        """The node names the element connects to."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} {self.nodes()}>"


class TwoTerminal(CircuitElement):
    """An element with exactly two terminals (positive, negative)."""

    def __init__(self, name: str, positive: str, negative: str) -> None:
        super().__init__(name)
        if positive == negative:
            raise ElementError(
                f"element {name!r}: both terminals connect to node {positive!r}"
            )
        self.positive = positive
        self.negative = negative

    def nodes(self) -> Tuple[str, ...]:
        return (self.positive, self.negative)


class Resistor(TwoTerminal):
    """A linear resistor."""

    def __init__(self, name: str, positive: str, negative: str, resistance_ohm: float) -> None:
        super().__init__(name, positive, negative)
        if resistance_ohm <= 0.0:
            raise ElementError(f"resistor {name!r}: resistance must be positive")
        self.resistance_ohm = resistance_ohm

    @property
    def conductance_s(self) -> float:
        return 1.0 / self.resistance_ohm


class Capacitor(TwoTerminal):
    """A linear capacitor with an optional initial voltage."""

    def __init__(
        self,
        name: str,
        positive: str,
        negative: str,
        capacitance_f: float,
        initial_voltage_v: Optional[float] = None,
    ) -> None:
        super().__init__(name, positive, negative)
        if capacitance_f < 0.0:
            raise ElementError(f"capacitor {name!r}: capacitance cannot be negative")
        self.capacitance_f = capacitance_f
        self.initial_voltage_v = initial_voltage_v


class VoltageSource(TwoTerminal):
    """An independent voltage source with a waveform."""

    def __init__(
        self,
        name: str,
        positive: str,
        negative: str,
        waveform: Waveform,
    ) -> None:
        super().__init__(name, positive, negative)
        self.waveform = waveform

    @classmethod
    def dc(cls, name: str, positive: str, negative: str, level_v: float) -> "VoltageSource":
        return cls(name, positive, negative, DC(level_v))

    def value_at(self, time_s: float) -> float:
        return self.waveform.value_at(time_s)


class CurrentSource(TwoTerminal):
    """An independent current source (current flows from positive to negative)."""

    def __init__(
        self,
        name: str,
        positive: str,
        negative: str,
        waveform: Waveform,
    ) -> None:
        super().__init__(name, positive, negative)
        self.waveform = waveform

    @classmethod
    def dc(cls, name: str, positive: str, negative: str, level_a: float) -> "CurrentSource":
        return cls(name, positive, negative, DC(level_a))

    def value_at(self, time_s: float) -> float:
        return self.waveform.value_at(time_s)
