"""Alpha-power-law FinFET compact model.

The study needs a transistor model that is (a) smooth enough for Newton
iteration, (b) calibrated to N10-class drive currents and capacitances and
(c) honest about the physics that matters for the bit-line discharge: the
pass-gate/pull-down series path behaves like a saturated current source
early in the discharge and like a resistor near the end.

The drain current follows Sakurai's alpha-power law with

* a softplus-smoothed overdrive (so the device turns off smoothly and the
  Jacobian never becomes exactly singular),
* the classic quadratic linear-region interpolation below ``Vdsat``,
* channel-length modulation in saturation, and
* symmetric operation (drain and source swap when ``Vds < 0``).

Gate, drain and source capacitances are taken as constant per-fin values
from :class:`repro.technology.transistors.FinFETParameters`; the circuit
builder adds them as explicit linear capacitors, keeping the nonlinear
element purely resistive (a standard quasi-static simplification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..technology.transistors import DeviceType, FinFETParameters
from .elements import CircuitElement, ElementError

#: Smoothing width (volts) of the softplus overdrive.
OVERDRIVE_SMOOTHING_V = 0.02

#: Central-difference step of :meth:`MOSFET.operating_point` (volts).
DERIVATIVE_STEP_V = 1e-6


@dataclass(frozen=True)
class OperatingPoint:
    """Drain current and small-signal conductances at a bias point."""

    ids_a: float
    gm_s: float
    gds_s: float
    vgs_v: float
    vds_v: float

    @property
    def saturated(self) -> bool:
        """Rough saturation flag (|Vds| above the effective overdrive)."""
        return abs(self.vds_v) >= max(abs(self.vgs_v), 1e-12)


def _softplus(value: float, width: float) -> float:
    """Numerically safe softplus: ``width * ln(1 + exp(value / width))``.

    Uses numpy's scalar ufuncs (not ``math``) so each branch is bitwise
    identical to the vectorised evaluation in :func:`batch_drain_currents`
    — the batched solver tier relies on exact agreement with this scalar
    reference path.
    """
    scaled = value / width
    if scaled > 40.0:
        return value
    if scaled < -40.0:
        return width * np.exp(scaled)
    return width * np.log1p(np.exp(scaled))


class MOSFET(CircuitElement):
    """A FinFET between drain, gate and source (bulk tied to source).

    Parameters
    ----------
    name:
        Element name.
    drain, gate, source:
        Node names.
    parameters:
        The compact-model parameters.
    nfins:
        Number of fins (parallel multiplier).
    """

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        parameters: FinFETParameters,
        nfins: int = 1,
    ) -> None:
        super().__init__(name)
        if nfins < 1:
            raise ElementError(f"MOSFET {name!r}: nfins must be at least 1")
        self.drain = drain
        self.gate = gate
        self.source = source
        self.parameters = parameters
        self.nfins = nfins

    def nodes(self) -> Tuple[str, ...]:
        return (self.drain, self.gate, self.source)

    # -- current equations -------------------------------------------------------

    @property
    def _polarity(self) -> float:
        return 1.0 if self.parameters.device_type is DeviceType.NMOS else -1.0

    def _forward_current(self, vgs: float, vds: float) -> float:
        """Drain current for ``vds >= 0`` of the equivalent N-type device."""
        p = self.parameters
        overdrive = _softplus(vgs - p.vth_v, OVERDRIVE_SMOOTHING_V)
        if overdrive <= 0.0:
            return 0.0
        # np.power, not ``**``: float.__pow__ takes a different libm path
        # and would break bit-parity with the batched kernel.
        idsat = p.k_a_per_valpha * self.nfins * np.power(overdrive, p.alpha)
        vdsat = max(overdrive, 1e-9)
        clm = 1.0 + p.lambda_per_v * vds
        if vds >= vdsat:
            return idsat * clm
        ratio = vds / vdsat
        return idsat * (2.0 - ratio) * ratio * clm

    def drain_current_a(self, v_drain: float, v_gate: float, v_source: float) -> float:
        """Terminal drain current (positive into the drain for NMOS conduction)."""
        polarity = self._polarity
        vds = polarity * (v_drain - v_source)
        if vds >= 0.0:
            vgs = polarity * (v_gate - v_source)
            return polarity * self._forward_current(vgs, vds)
        # Symmetric operation: the physical source is the higher-potential
        # terminal for NMOS (lower for PMOS); swap and negate.
        vgs = polarity * (v_gate - v_drain)
        return -polarity * self._forward_current(vgs, -vds)

    def operating_point(
        self, v_drain: float, v_gate: float, v_source: float
    ) -> OperatingPoint:
        """Current and conductances via central finite differences.

        Finite differences keep the model code simple and are accurate to
        ~1e-6 relative for the smooth equations above; the Newton solver
        only needs a descent direction, not exact derivatives.
        """
        delta = DERIVATIVE_STEP_V
        ids = self.drain_current_a(v_drain, v_gate, v_source)
        gm = (
            self.drain_current_a(v_drain, v_gate + delta, v_source)
            - self.drain_current_a(v_drain, v_gate - delta, v_source)
        ) / (2.0 * delta)
        gds = (
            self.drain_current_a(v_drain + delta, v_gate, v_source)
            - self.drain_current_a(v_drain - delta, v_gate, v_source)
        ) / (2.0 * delta)
        return OperatingPoint(
            ids_a=ids,
            gm_s=gm,
            gds_s=gds,
            vgs_v=v_gate - v_source,
            vds_v=v_drain - v_source,
        )

    # -- capacitances -------------------------------------------------------------

    def terminal_capacitances_f(self) -> Dict[str, float]:
        """Constant lumped capacitances from each terminal to ground."""
        p = self.parameters
        return {
            self.gate: p.cgate_f_per_fin * self.nfins,
            self.drain: p.cdrain_f_per_fin * self.nfins,
            self.source: p.csource_f_per_fin * self.nfins,
        }

    # -- convenience ----------------------------------------------------------------

    def on_current_a(self, vdd_v: float) -> float:
        """Saturation current at ``Vgs = Vds = Vdd`` (sign-free magnitude)."""
        return abs(
            self.drain_current_a(
                v_drain=vdd_v if self._polarity > 0 else 0.0,
                v_gate=vdd_v if self._polarity > 0 else 0.0,
                v_source=0.0 if self._polarity > 0 else vdd_v,
            )
        )


# -- batched evaluation -------------------------------------------------------------
#
# The batched solver tier evaluates every device of every stacked work item
# in one vectorised pass.  Each expression below is the element-wise twin of
# the scalar methods above (same operations, same order, same numpy ufuncs),
# so the two paths produce bitwise-identical currents and conductances — the
# property the rtol<=1e-12 parity gate rests on.


@dataclass(frozen=True)
class DeviceParams:
    """Per-device compact-model parameters as flat arrays.

    One entry per MOSFET instance; ``k_a`` folds in the fin multiplier
    (``k_a_per_valpha * nfins``), matching the scalar product order.
    """

    polarity: np.ndarray
    vth_v: np.ndarray
    k_a: np.ndarray
    alpha: np.ndarray
    lambda_per_v: np.ndarray

    def __len__(self) -> int:
        return self.polarity.shape[0]

    @classmethod
    def from_devices(cls, devices: Sequence[MOSFET]) -> "DeviceParams":
        return cls(
            polarity=np.array([d._polarity for d in devices]),
            vth_v=np.array([d.parameters.vth_v for d in devices]),
            k_a=np.array(
                [d.parameters.k_a_per_valpha * d.nfins for d in devices]
            ),
            alpha=np.array([d.parameters.alpha for d in devices]),
            lambda_per_v=np.array([d.parameters.lambda_per_v for d in devices]),
        )

    @classmethod
    def stack(cls, items: Sequence["DeviceParams"]) -> "DeviceParams":
        """Concatenate per-item parameter sets into one batch-flat set."""
        return cls(
            polarity=np.concatenate([p.polarity for p in items]),
            vth_v=np.concatenate([p.vth_v for p in items]),
            k_a=np.concatenate([p.k_a for p in items]),
            alpha=np.concatenate([p.alpha for p in items]),
            lambda_per_v=np.concatenate([p.lambda_per_v for p in items]),
        )


def _batch_softplus(value: np.ndarray, width: float) -> np.ndarray:
    """Vectorised :func:`_softplus`; selected branches match it bitwise."""
    scaled = value / width
    big = scaled > 40.0
    small = scaled < -40.0
    # Zero the large inputs before exp so inactive lanes cannot overflow;
    # lanes that take the mid/small branches see their true exp(scaled).
    exp_scaled = np.exp(np.where(big, 0.0, scaled))
    mid = width * np.log1p(exp_scaled)
    return np.where(big, value, np.where(small, width * exp_scaled, mid))


def _batch_forward_current(
    vgs: np.ndarray, vds: np.ndarray, params: DeviceParams
) -> np.ndarray:
    """Vectorised :meth:`MOSFET._forward_current` (``vds >= 0`` assumed)."""
    overdrive = _batch_softplus(vgs - params.vth_v, OVERDRIVE_SMOOTHING_V)
    idsat = params.k_a * np.power(overdrive, params.alpha)
    vdsat = np.maximum(overdrive, 1e-9)
    clm = 1.0 + params.lambda_per_v * vds
    ratio = vds / vdsat
    linear = idsat * (2.0 - ratio) * ratio * clm
    current = np.where(vds >= vdsat, idsat * clm, linear)
    return np.where(overdrive <= 0.0, 0.0, current)


def batch_drain_currents(
    v_drain: np.ndarray,
    v_gate: np.ndarray,
    v_source: np.ndarray,
    params: DeviceParams,
) -> np.ndarray:
    """Vectorised :meth:`MOSFET.drain_current_a` over device lanes."""
    polarity = params.polarity
    vds_raw = polarity * (v_drain - v_source)
    forward = vds_raw >= 0.0
    # Symmetric operation: swap drain/source on the reverse lanes.
    vgs = polarity * (np.where(forward, v_gate - v_source, v_gate - v_drain))
    vds = np.where(forward, vds_raw, -vds_raw)
    current = _batch_forward_current(vgs, vds, params)
    return np.where(forward, polarity, -polarity) * current


def batch_operating_points(
    v_drain: np.ndarray,
    v_gate: np.ndarray,
    v_source: np.ndarray,
    params: DeviceParams,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :meth:`MOSFET.operating_point`: ``(ids, gm, gds)`` arrays.

    Evaluates the five central-difference bias points as one stacked kernel
    call; every element reproduces the scalar method bitwise.
    """
    delta = DERIVATIVE_STEP_V
    n = v_drain.shape[0]
    vd5 = np.empty((5, n))
    vg5 = np.empty((5, n))
    vd5[:3] = v_drain
    vd5[3] = v_drain + delta
    vd5[4] = v_drain - delta
    vg5[0] = v_gate
    vg5[1] = v_gate + delta
    vg5[2] = v_gate - delta
    vg5[3:] = v_gate
    ids5 = batch_drain_currents(vd5, vg5, v_source, params)
    ids = ids5[0]
    gm = (ids5[1] - ids5[2]) / (2.0 * delta)
    gds = (ids5[3] - ids5[4]) / (2.0 * delta)
    return ids, gm, gds
