"""Tests of the analytical td / tdp formula (eqs. 1-5)."""

import math

import pytest

from repro.core.analytical import (
    AnalyticalDelayModel,
    AnalyticalModelError,
    discharge_constant,
    model_from_technology,
)
from repro.core.operations import create_operation
from repro.sram.precharge import precharge_capacitance_f


def simple_model(a=0.105):
    return AnalyticalDelayModel(
        a=a,
        rbl_per_cell_ohm=8.5,
        cbl_per_cell_f=38e-18,
        rfe_ohm=40_000.0,
        cfe_per_cell_f=32e-18,
        cpre_fn=lambda n: 1e-16 * max(1, n // 8),
    )


class TestDischargeConstant:
    def test_ten_percent_level_matches_paper(self):
        """Eq. 3: a ~ 0.105 for a 10% discharge level."""
        assert discharge_constant(0.1) == pytest.approx(0.105, abs=0.001)

    def test_sixty_three_percent_gives_one(self):
        assert discharge_constant(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-9)

    def test_monotonic_in_level(self):
        assert discharge_constant(0.2) > discharge_constant(0.1)

    def test_invalid_levels_rejected(self):
        with pytest.raises(AnalyticalModelError):
            discharge_constant(0.0)
        with pytest.raises(AnalyticalModelError):
            discharge_constant(1.0)


class TestEquationFour:
    def test_td_matches_hand_computation(self):
        model = simple_model()
        n = 64
        resistance = n * 8.5 + 40_000.0
        capacitance = n * (38e-18 + 32e-18) + 1e-16 * 8
        assert model.td_s(n) == pytest.approx(0.105 * resistance * capacitance, rel=1e-12)

    def test_variation_ratios_enter_linearly(self):
        model = simple_model()
        n = 64
        base = model.td_s(n)
        # Doubling Cvar doubles only the wire-capacitance term.
        with_cvar = model.td_s(n, cvar=2.0)
        assert with_cvar > base
        assert with_cvar < 2.0 * base

    def test_td_nominal_equals_unity_variation(self):
        model = simple_model()
        assert model.td_nominal_s(256) == model.td_s(256, 1.0, 1.0)

    def test_td_grows_superlinearly_with_n(self):
        model = simple_model()
        assert model.td_s(1024) > 4.0 * model.td_s(256)

    def test_invalid_inputs_rejected(self):
        model = simple_model()
        with pytest.raises(AnalyticalModelError):
            model.td_s(0)
        with pytest.raises(AnalyticalModelError):
            model.td_s(64, rvar=0.0)
        with pytest.raises(AnalyticalModelError):
            AnalyticalDelayModel(
                a=-1.0, rbl_per_cell_ohm=1.0, cbl_per_cell_f=1e-18,
                rfe_ohm=1.0, cfe_per_cell_f=0.0, cpre_fn=lambda n: 0.0,
            )


class TestEquationFive:
    def test_polynomial_reconstructs_td(self):
        model = simple_model()
        for n in (16, 64, 256, 1024):
            coefficients = model.polynomial_coefficients(n)
            assert coefficients.evaluate(n) == pytest.approx(model.td_s(n), rel=1e-9)

    def test_quadratic_coefficient_tracks_rvar_and_cvar(self):
        model = simple_model()
        nominal = model.polynomial_coefficients(64)
        varied = model.polynomial_coefficients(64, rvar=1.5, cvar=2.0)
        assert varied.c2 > nominal.c2
        assert varied.c0 == pytest.approx(nominal.c0)   # constant term has no Rbl/Cbl

    def test_constant_term_independent_of_variation(self):
        model = simple_model()
        assert model.polynomial_coefficients(64, rvar=0.5, cvar=3.0).c0 == pytest.approx(
            model.polynomial_coefficients(64).c0
        )


class TestTdp:
    def test_nominal_tdp_is_one(self):
        assert simple_model().tdp(64, 1.0, 1.0) == pytest.approx(1.0)

    def test_capacitance_increase_always_penalises(self):
        model = simple_model()
        for n in (16, 64, 256, 1024):
            assert model.tdp(n, 1.0, 1.2) > 1.0

    def test_resistance_decrease_helps_more_for_long_arrays(self):
        """The Rvar term is weighted by n*Rbl, so its effect grows with n."""
        model = simple_model()
        short = model.tdp(16, 0.9, 1.0)
        long = model.tdp(1024, 0.9, 1.0)
        assert long < short < 1.0

    def test_non_monotonic_penalty_with_negative_rvar(self):
        """LE3-like corner (Cvar up, Rvar down): penalty shrinks for large n."""
        model = simple_model()
        penalties = [model.tdp_percent(n, 0.87, 1.55) for n in (16, 64, 256, 1024)]
        assert penalties[0] > 0.0
        assert penalties[-1] < penalties[0]

    def test_tdp_percent_consistent_with_ratio(self):
        model = simple_model()
        assert model.tdp_percent(64, 0.9, 1.3) == pytest.approx(
            (model.tdp(64, 0.9, 1.3) - 1.0) * 100.0
        )

    def test_sensitivity_shifts_from_c_to_r_with_array_size(self):
        model = simple_model()
        d_r_small, d_c_small = model.tdp_sensitivity(16)
        d_r_large, d_c_large = model.tdp_sensitivity(1024)
        assert d_c_small > d_r_small          # small arrays: C dominated
        assert d_r_large > d_r_small          # R gains weight with n


class TestModelFromTechnology:
    def test_parameters_derived_from_node(self, node, analytical_model):
        assert analytical_model.a == pytest.approx(discharge_constant(0.1), rel=1e-6)
        assert 2.0 < analytical_model.rbl_per_cell_ohm < 30.0
        assert 1e-17 < analytical_model.cbl_per_cell_f < 1e-16
        assert analytical_model.rfe_ohm > 1_000.0
        assert analytical_model.cfe_per_cell_f > 0.0

    def test_cpre_matches_precharge_scaling(self, node, analytical_model):
        assert analytical_model.cpre_fn(64) == pytest.approx(
            precharge_capacitance_f(64, device=node.sram_devices.pull_up)
        )
        assert analytical_model.cpre_fn(1024) > analytical_model.cpre_fn(64)

    def test_formula_td_same_order_as_simulation(self, analytical_model, sims):
        """Table II behaviour: same order of magnitude, same ordering in n."""
        for n in (16, 64):
            formula = analytical_model.td_nominal_s(n)
            simulated = create_operation("read").measure_nominal(sims, n).td_s
            assert 0.2 < simulated / formula < 5.0
        assert analytical_model.td_nominal_s(64) > analytical_model.td_nominal_s(16)

    def test_with_parameters_override(self, analytical_model):
        modified = analytical_model.with_parameters(rfe_ohm=10_000.0)
        assert modified.rfe_ohm == 10_000.0
        assert modified.rbl_per_cell_ohm == analytical_model.rbl_per_cell_ohm
