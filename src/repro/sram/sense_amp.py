"""Sense-amplifier sensitivity model.

The paper does not simulate the sense amplifier itself; it defines the
read to be complete once the differential bit-line voltage reaches the
sense-amplifier sensitivity (``|Vbl − Vblb| = 0.07 V``).  This module
provides that firing criterion in two forms:

* a :class:`SenseAmplifier` object that can judge a finished transient
  result, and
* an early-stop predicate factory for the transient solver so a read
  simulation ends the moment the threshold is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..circuit.transient import StopCondition
from ..circuit.waveform import TransientResult


class SenseAmpError(ValueError):
    """Raised for inconsistent sense-amplifier configurations."""


@dataclass(frozen=True)
class SenseAmplifier:
    """A differential sense amplifier characterised by its input sensitivity.

    Parameters
    ----------
    sensitivity_v:
        Minimum differential input for reliable sensing (70 mV in the
        paper's setup).
    bitline_node, bitline_bar_node:
        The circuit nodes the amplifier observes (the periphery ends of the
        bit-line pair).
    """

    sensitivity_v: float
    bitline_node: str
    bitline_bar_node: str

    def __post_init__(self) -> None:
        if self.sensitivity_v <= 0.0:
            raise SenseAmpError("the sense sensitivity must be positive")
        if self.bitline_node == self.bitline_bar_node:
            raise SenseAmpError("the two sense inputs must be different nodes")

    def differential_v(self, voltages: Mapping[str, float]) -> float:
        """Differential input from a node-voltage dictionary."""
        return abs(voltages[self.bitline_node] - voltages[self.bitline_bar_node])

    def fires(self, voltages: Mapping[str, float]) -> bool:
        """Whether the amplifier would fire at these node voltages."""
        return self.differential_v(voltages) >= self.sensitivity_v

    def stop_condition(self, margin: float = 1.2) -> StopCondition:
        """Early-stop predicate for the transient solver.

        The simulation is allowed to run slightly past the firing threshold
        (``margin`` × sensitivity) so the crossing can be interpolated from
        bracketing time points instead of being truncated exactly at it.
        """
        if margin < 1.0:
            raise SenseAmpError("the stop margin must be at least 1.0")
        target = self.sensitivity_v * margin

        def _should_stop(_time_s: float, voltages: Mapping[str, float]) -> bool:
            return self.differential_v(voltages) >= target

        return _should_stop

    def firing_time_s(self, result: TransientResult) -> Optional[float]:
        """Time at which the sensitivity is first reached in a finished run."""
        return result.differential_crossing_time_s(
            self.bitline_node, self.bitline_bar_node, self.sensitivity_v
        )
