"""Transient-simulation results and waveform measurements.

A :class:`TransientResult` stores the accepted time points and the node
voltages at each point, and offers the measurements the SRAM study needs:
threshold-crossing times and differential (sense-amplifier style)
crossing times, both with linear interpolation between time points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


class MeasurementError(ValueError):
    """Raised when a waveform measurement cannot be evaluated."""


@dataclass
class TransientResult:
    """Voltages versus time for every circuit node.

    Attributes
    ----------
    times_s:
        Accepted simulation time points (seconds), strictly increasing.
    voltages:
        Mapping node name → array of voltages, one entry per time point.
    converged:
        Whether every accepted step converged (the solver raises otherwise,
        so this is informational).
    stop_reason:
        Why the simulation ended: ``"tstop"``, ``"stop-condition"``.
    """

    times_s: np.ndarray
    voltages: Dict[str, np.ndarray]
    converged: bool = True
    stop_reason: str = "tstop"

    def __post_init__(self) -> None:
        self.times_s = np.asarray(self.times_s, dtype=float)
        if self.times_s.ndim != 1 or self.times_s.size == 0:
            raise MeasurementError("a transient result needs at least one time point")
        for node, values in self.voltages.items():
            array = np.asarray(values, dtype=float)
            if array.shape != self.times_s.shape:
                raise MeasurementError(
                    f"node {node!r}: waveform length {array.shape} does not match "
                    f"time axis {self.times_s.shape}"
                )
            self.voltages[node] = array

    # -- access -----------------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return list(self.voltages)

    @property
    def end_time_s(self) -> float:
        return float(self.times_s[-1])

    def voltage(self, node: str) -> np.ndarray:
        try:
            return self.voltages[node]
        except KeyError:
            raise MeasurementError(
                f"node {node!r} was not recorded; recorded nodes: {self.nodes[:20]}"
            ) from None

    def voltage_at(self, node: str, time_s: float) -> float:
        """Voltage of ``node`` at ``time_s`` (linear interpolation)."""
        waveform = self.voltage(node)
        return float(np.interp(time_s, self.times_s, waveform))

    def final_voltage(self, node: str) -> float:
        return float(self.voltage(node)[-1])

    # -- measurements --------------------------------------------------------------

    def crossing_time_s(
        self,
        node: str,
        level_v: float,
        direction: str = "falling",
        start_time_s: float = 0.0,
    ) -> Optional[float]:
        """First time ``node`` crosses ``level_v`` in the given direction.

        Returns ``None`` when the waveform never crosses the level after
        ``start_time_s``.
        """
        if direction not in ("rising", "falling"):
            raise MeasurementError("direction must be 'rising' or 'falling'")
        values = self.voltage(node)
        times = self.times_s
        for index in range(1, len(times)):
            if times[index] < start_time_s:
                continue
            previous, current = values[index - 1], values[index]
            if direction == "falling" and previous > level_v >= current:
                pass
            elif direction == "rising" and previous < level_v <= current:
                pass
            else:
                continue
            if current == previous:
                return float(times[index])
            fraction = (level_v - previous) / (current - previous)
            return float(times[index - 1] + fraction * (times[index] - times[index - 1]))
        return None

    def differential_crossing_time_s(
        self,
        node_a: str,
        node_b: str,
        threshold_v: float,
        start_time_s: float = 0.0,
    ) -> Optional[float]:
        """First time ``|V(node_a) − V(node_b)|`` reaches ``threshold_v``.

        This is the sense-amplifier firing condition of the paper
        (``|Vbl − Vblb| = 0.07 V``).
        """
        if threshold_v <= 0.0:
            raise MeasurementError("the differential threshold must be positive")
        difference = np.abs(self.voltage(node_a) - self.voltage(node_b))
        times = self.times_s
        for index in range(1, len(times)):
            if times[index] < start_time_s:
                continue
            previous, current = difference[index - 1], difference[index]
            if previous < threshold_v <= current:
                if current == previous:
                    return float(times[index])
                fraction = (threshold_v - previous) / (current - previous)
                return float(
                    times[index - 1] + fraction * (times[index] - times[index - 1])
                )
        return None

    def crossover_time_s(
        self,
        node_a: str,
        node_b: str,
        start_time_s: float = 0.0,
    ) -> Optional[float]:
        """First time ``V(node_a)`` and ``V(node_b)`` cross each other.

        This is the cell-flip instant of a write: the internal ``q`` and
        ``qb`` waveforms start complementary, converge and swap order.
        Returns ``None`` when the difference never changes sign after
        ``start_time_s``.
        """
        difference = self.voltage(node_a) - self.voltage(node_b)
        times = self.times_s
        for index in range(1, len(times)):
            if times[index] < start_time_s:
                continue
            previous, current = difference[index - 1], difference[index]
            if previous == 0.0:
                return float(times[index - 1])
            if previous * current > 0.0:
                continue
            fraction = (0.0 - previous) / (current - previous)
            return float(
                times[index - 1] + fraction * (times[index] - times[index - 1])
            )
        return None

    def sample(self, node: str, times_s: Sequence[float]) -> np.ndarray:
        """Resample a node waveform onto an arbitrary time grid."""
        return np.interp(np.asarray(times_s, dtype=float), self.times_s, self.voltage(node))
