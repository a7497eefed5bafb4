"""The analytical read-time formula (Section III.A, eqs. 1–5).

The paper models the bit-line discharge as a lumped RC step response
(eq. 1), defines the time-to-discharge as ``td = a · RC`` (eq. 2) where the
constant ``a`` follows from the target discharge level (eq. 3, ``a ≈ 0.105``
for the 10 % discharge implied by a 70 mV sense threshold on a 0.7 V
precharge), and then expands R and C into their array-size-dependent parts
(eq. 4):

    td = a · (n·Rbl·Rvar + R_FE) · (n·(Cbl·Cvar + C_FE) + Cpre(n))

with

* ``n``      — bit-line length in cells,
* ``Rbl``    — bit-line resistance of one cell pitch,
* ``Rvar``   — bit-line resistance variation as a ratio (1 + x),
* ``R_FE``   — front-end resistance of the discharge path (pass-gate +
  pull-down), constant,
* ``Cbl``    — bit-line wire capacitance of one cell pitch,
* ``Cvar``   — bit-line capacitance variation as a ratio (1 + x),
* ``C_FE``   — front-end capacitance per cell (off pass-gate junction),
* ``Cpre(n)``— precharge-circuit capacitance, which scales with ``n``.

Expanding in ``n`` gives the quadratic-plus-linear-plus-constant form of
eq. 5; the read-time penalty ``tdp`` is the rational function
``td(Rvar, Cvar) / td(1, 1)``, whose polynomial nature (together with the
negative Rvar of the worst cases) explains the non-monotonic tdp versus
array size seen in the simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..extraction.lpe import ParameterizedLPE
from ..layout.array import generate_array_layout
from ..sram.cell import bitline_loading_per_unselected_cell_f
from ..sram.precharge import PrechargeCapacitanceLaw
from ..technology.node import TechnologyNode

#: Scalars or sample arrays — every eq. 4/5 entry point accepts both and
#: broadcasts them together, so a whole Monte-Carlo study point is a single
#: vectorised evaluation.
ArrayLike = Union[int, float, np.ndarray]


class AnalyticalModelError(ValueError):
    """Raised for inconsistent analytical-model parameters."""


def discharge_constant(discharge_fraction: float) -> float:
    """The constant ``a`` of eq. 2/3 for a given discharge level.

    From ``V_out(t) = (1 − e^(−t/RC)) · V`` (eq. 1): discharging the bit
    line by a fraction ``f`` of its precharge level takes
    ``t = −ln(1 − f) · RC``, so ``a = −ln(1 − f)``.  For the paper's 10 %
    level this gives ``a ≈ 0.105`` (eq. 3).
    """
    if not 0.0 < discharge_fraction < 1.0:
        raise AnalyticalModelError(
            f"the discharge fraction must be within (0, 1), got {discharge_fraction}"
        )
    return -math.log(1.0 - discharge_fraction)


@dataclass(frozen=True)
class PolynomialCoefficients:
    """The ``td = c2·n² + c1·n + c0`` view of eq. 5 (for fixed Rvar/Cvar).

    ``c1`` and ``c0`` are "almost" constant in ``n`` in the paper's wording
    because ``Cpre(n)`` still depends weakly on ``n``; the coefficients
    here are exact for a given ``n`` (they are recomputed per array size).
    """

    c2: float
    c1: float
    c0: float

    def evaluate(self, n: int) -> float:
        return self.c2 * n * n + self.c1 * n + self.c0


@dataclass(frozen=True)
class AnalyticalDelayModel:
    """Eq. 4 with technology-derived parameters.

    Parameters
    ----------
    a:
        Discharge constant (eq. 3).
    rbl_per_cell_ohm / cbl_per_cell_f:
        Nominal bit-line wire resistance / capacitance per cell pitch.
    rfe_ohm:
        Front-end (discharge-path) resistance.
    cfe_per_cell_f:
        Front-end capacitance per cell.
    cpre_fn:
        ``Cpre(n)`` — precharge capacitance as a function of the array
        size, matching the scaling used in the simulated netlists.
    """

    a: float
    rbl_per_cell_ohm: float
    cbl_per_cell_f: float
    rfe_ohm: float
    cfe_per_cell_f: float
    cpre_fn: Callable[[int], float]

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise AnalyticalModelError("the discharge constant must be positive")
        if self.rbl_per_cell_ohm <= 0.0 or self.cbl_per_cell_f <= 0.0:
            raise AnalyticalModelError("per-cell bit-line R and C must be positive")
        if self.rfe_ohm <= 0.0:
            raise AnalyticalModelError("the front-end resistance must be positive")
        if self.cfe_per_cell_f < 0.0:
            raise AnalyticalModelError("the front-end capacitance cannot be negative")

    # -- eq. 4 ------------------------------------------------------------------------

    def td_s(self, n: ArrayLike, rvar: ArrayLike = 1.0, cvar: ArrayLike = 1.0) -> ArrayLike:
        """Read time (seconds) for an ``n``-cell column at the given variation.

        ``n``, ``rvar`` and ``cvar`` may each be scalars or (broadcastable)
        arrays; with array inputs the result is the element-wise read time,
        which is how the Monte-Carlo study maps a whole sample set through
        eq. 4 in one call.
        """
        if np.any(np.asarray(n) < 1):
            raise AnalyticalModelError("the array size must be at least one cell")
        if np.any(np.asarray(rvar) <= 0.0) or np.any(np.asarray(cvar) <= 0.0):
            raise AnalyticalModelError("variation ratios must be positive")
        resistance = n * self.rbl_per_cell_ohm * rvar + self.rfe_ohm
        capacitance = n * (self.cbl_per_cell_f * cvar + self.cfe_per_cell_f) + self.cpre_fn(n)
        return self.a * resistance * capacitance

    def td_nominal_s(self, n: ArrayLike) -> ArrayLike:
        """Nominal read time (``Rvar = Cvar = 1``)."""
        return self.td_s(n, 1.0, 1.0)

    # -- eq. 5 ------------------------------------------------------------------------

    def polynomial_coefficients(
        self, n: int, rvar: float = 1.0, cvar: float = 1.0
    ) -> PolynomialCoefficients:
        """The second-degree polynomial form of eq. 5 at a given array size."""
        cpre = self.cpre_fn(n)
        cap_term = self.cbl_per_cell_f * cvar + self.cfe_per_cell_f
        c2 = self.a * self.rbl_per_cell_ohm * rvar * cap_term
        c1 = self.a * (self.rfe_ohm * cap_term + self.rbl_per_cell_ohm * rvar * cpre)
        c0 = self.a * self.rfe_ohm * cpre
        return PolynomialCoefficients(c2=c2, c1=c1, c0=c0)

    # -- tdp --------------------------------------------------------------------------

    def tdp(self, n: ArrayLike, rvar: ArrayLike, cvar: ArrayLike) -> ArrayLike:
        """Read-time penalty as a ratio: ``td(Rvar, Cvar) / td(1, 1)``.

        Accepts scalars or arrays like :meth:`td_s`.
        """
        return self.td_s(n, rvar, cvar) / self.td_nominal_s(n)

    def tdp_percent(self, n: ArrayLike, rvar: ArrayLike, cvar: ArrayLike) -> ArrayLike:
        """Read-time penalty in percent (the quantity of Tables III/IV)."""
        return (self.tdp(n, rvar, cvar) - 1.0) * 100.0

    # -- sensitivities -----------------------------------------------------------------

    def tdp_sensitivity(self, n: int, delta: float = 1e-4) -> Tuple[float, float]:
        """Partial derivatives of tdp w.r.t. Rvar and Cvar around nominal.

        Useful for the ablation study on which variation dominates at which
        array size: for small arrays Cvar dominates (the front-end
        resistance swamps the wire resistance), for large arrays the Rvar
        term gains weight.
        """
        base = self.tdp(n, 1.0, 1.0)
        d_r = (self.tdp(n, 1.0 + delta, 1.0) - base) / delta
        d_c = (self.tdp(n, 1.0, 1.0 + delta) - base) / delta
        return d_r, d_c

    def with_parameters(self, **changes: object) -> "AnalyticalDelayModel":
        return replace(self, **changes)


def model_from_technology(
    node: TechnologyNode,
    n_bitline_pairs: int = 10,
    reference_wordlines: int = 64,
) -> AnalyticalDelayModel:
    """Build the analytical model's parameters from a technology node.

    The per-cell bit-line R and C come from a nominal extraction of the
    reference array (per-cell values are size independent, the reference
    size only avoids single-cell edge effects); the front-end values come
    from the SRAM device set; ``Cpre(n)`` follows the same scaling law as
    the simulated precharge circuit.
    """
    layout = generate_array_layout(
        n_wordlines=reference_wordlines, n_bitline_pairs=n_bitline_pairs, node=node
    )
    lpe = ParameterizedLPE(node)
    extraction = lpe.extract_pattern(layout.metal1_pattern)
    bl_net, _blb_net = layout.central_pair_nets()
    parasitics = extraction[bl_net]
    cell_length = layout.cell.cell_length_nm

    devices = node.sram_devices
    conditions = node.operating_conditions
    return AnalyticalDelayModel(
        a=discharge_constant(conditions.discharge_fraction),
        rbl_per_cell_ohm=parasitics.resistance_per_nm * cell_length,
        cbl_per_cell_f=parasitics.capacitance_per_nm.total * cell_length,
        rfe_ohm=devices.discharge_path_resistance_ohm(conditions.vdd_v),
        cfe_per_cell_f=bitline_loading_per_unselected_cell_f(devices),
        cpre_fn=PrechargeCapacitanceLaw(device=devices.pull_up),
    )
