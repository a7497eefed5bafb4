"""Tests of the operation suite: registry, campaign axis, MC/worst-case twins.

The parity pin mirrors the read campaign's: ``WorstCaseStudy.operation_rows``
is a serial one-scenario campaign, and the rows of a four-operation
campaign run over a process pool must equal its rows exactly.
"""

import numpy as np
import pytest

from repro.core.campaign import (
    CampaignError,
    CampaignRecord,
    CampaignScenario,
    SimulationCampaign,
    scenario_grid,
)
from repro.core.montecarlo import MonteCarloTdpStudy
from repro.core.operations import (
    OPERATION_NAMES,
    OperationError,
    OperationSimulators,
    calibrate_response_surface,
    create_operation,
)
from repro.core.worst_case import WorstCaseStudy
from repro.variability.doe import StudyDOE

RTOL = 1e-12
ALL_OPS = ("read", "write", "hold_snm", "read_snm")


@pytest.fixture(scope="module")
def doe():
    return StudyDOE(array_sizes=(16,))


@pytest.fixture(scope="module")
def op_simulators(node):
    return OperationSimulators(node)


@pytest.fixture(scope="module")
def serial_op_rows(node, doe):
    """Per-operation worst-case impact rows through the serial entry point."""
    worst_case = WorstCaseStudy(node, doe=doe)
    return {name: worst_case.operation_rows(name) for name in ALL_OPS}


class TestRegistry:
    def test_all_operations_resolve(self):
        for name in OPERATION_NAMES:
            assert create_operation(name).name == name

    def test_unknown_operation_raises(self):
        with pytest.raises(OperationError, match="unknown operation"):
            create_operation("erase")

    def test_metrics_and_units(self):
        assert create_operation("read").unit == "s"
        assert create_operation("write").metric == "delay"
        assert create_operation("hold_snm").unit == "V"
        assert create_operation("read_snm").metric == "margin"

    def test_simulator_bundle_shares_one_geometry(self, op_simulators):
        assert op_simulators.write.geometry is op_simulators.read
        assert op_simulators.margins.geometry is op_simulators.read


class TestSequentialRows:
    """Rows of the serial entry point, ``WorstCaseStudy.operation_rows``."""

    def test_rows_cover_every_option_and_size(self, serial_op_rows, doe):
        for name, rows in serial_op_rows.items():
            assert [row.n_wordlines for row in rows] == list(doe.array_sizes)
            for row in rows:
                assert row.operation == name
                assert set(row.delta_percent_by_option) == set(doe.option_names)
                assert row.nominal_value > 0.0

    def test_margin_rows_carry_volt_units(self, serial_op_rows):
        assert serial_op_rows["hold_snm"][0].unit == "V"
        assert "mV" in serial_op_rows["hold_snm"][0].nominal_display
        assert serial_op_rows["write"][0].unit == "s"
        assert "ps" in serial_op_rows["write"][0].nominal_display

    def test_read_rows_reproduce_figure4(self, node, doe):
        worst_case = WorstCaseStudy(node, doe=doe)
        figure4 = worst_case.figure4()
        op_rows = worst_case.operation_rows("read")
        for f4, op in zip(figure4, op_rows):
            assert op.nominal_value * 1e12 == pytest.approx(f4.nominal_td_ps, rel=RTOL)
            for name, value in f4.tdp_percent_by_option.items():
                assert op.delta_percent_by_option[name] == pytest.approx(value, rel=RTOL)


class TestCampaignOperationAxis:
    def test_pool_rows_equal_serial_rows(self, node, doe, serial_op_rows):
        campaign = SimulationCampaign(
            node, doe=doe, scenarios=scenario_grid(operations=ALL_OPS)
        )
        results = campaign.run(workers=2, clamp_to_cpus=False)
        for scenario in campaign.scenarios:
            assert (
                campaign.operation_rows(results, scenario)
                == serial_op_rows[scenario.operation]
            )

    def test_operation_scenarios_share_the_read_nominal_keys(self):
        scenarios = scenario_grid(operations=("read", "write"))
        assert scenarios[0].sim_key == "sv0-strap256-be"
        assert scenarios[1].sim_key == "write-sv0-strap256-be"
        assert [s.label for s in scenarios] == ["paper", "write"]

    def test_invalid_operation_rejected(self):
        with pytest.raises(CampaignError, match="operation"):
            CampaignScenario(operation="erase")

    def test_figure4_rows_require_a_read_scenario(self, node, doe):
        campaign = SimulationCampaign(
            node, doe=doe, scenarios=scenario_grid(operations=("hold_snm",))
        )
        results = campaign.run()
        with pytest.raises(CampaignError, match="read scenarios"):
            campaign.figure4_rows(results)
        with pytest.raises(CampaignError, match="read scenarios"):
            campaign.table2_rows(results, model=None)

    def test_margin_records_carry_value_and_unit(self, node, doe):
        campaign = SimulationCampaign(
            node, doe=doe, scenarios=scenario_grid(operations=("hold_snm",))
        )
        results = campaign.run()
        nominal = results.nominal("hold_snm-sv0-strap256-be", 16)
        assert nominal.operation == "hold_snm"
        assert nominal.unit == "V"
        assert nominal.value > 0.0
        assert nominal.td_s == 0.0
        corner = results.corner("hold_snm", "SADP", 16)
        impact = results.penalty_percent_for(corner)
        assert impact == pytest.approx(
            (corner.value / nominal.value - 1.0) * 100.0, rel=1e-12
        )

    def test_record_round_trip_preserves_operation_fields(self, node, doe):
        campaign = SimulationCampaign(
            node, doe=doe, scenarios=scenario_grid(operations=("write",))
        )
        record = campaign.run().records[0]
        clone = CampaignRecord.from_dict(record.to_dict())
        assert clone == record
        assert clone.operation == "write"


class TestResponseSurface:
    def test_write_surface_slopes_match_the_physics(self, node, op_simulators):
        surface = calibrate_response_surface(
            create_operation("write"), op_simulators, 64
        )
        assert surface.base_value > 0.0
        assert surface.d_rvar > 0.0        # more bit-line R -> slower write
        assert surface.values(1.0, 1.0) == pytest.approx(surface.base_value)
        assert surface.change_percent(1.0, 1.0) == pytest.approx(0.0)

    def test_read_surface_base_is_the_nominal_td(self, node, op_simulators):
        surface = calibrate_response_surface(
            create_operation("read"), op_simulators, 16
        )
        nominal = create_operation("read").measure_nominal(op_simulators, 16)
        assert surface.base_value == pytest.approx(nominal.td_s, rel=RTOL)
        assert surface.d_cvar > 0.0        # more bit-line C -> slower read

    def test_bad_delta_rejected(self, op_simulators):
        with pytest.raises(OperationError, match="delta"):
            calibrate_response_surface(
                create_operation("read"), op_simulators, 16, delta=0.0
            )


class TestOperationSigma:
    def test_sigma_rows_cover_the_doe(self, node, op_simulators):
        study = MonteCarloTdpStudy(
            node, doe=StudyDOE(array_sizes=(16,)), n_samples=40
        )
        rows = study.operation_sigma_rows(
            "write", n_wordlines=16, simulators=op_simulators
        )
        points = study.doe.monte_carlo_points(n_wordlines=16)
        assert len(rows) == len(points)
        for row, point in zip(rows, points):
            assert row.operation == "write"
            assert row.option_name == point.option_name
            assert row.sigma_percent >= 0.0
        # The LE3 overlay sweep must show nonzero spread somewhere.
        assert any(row.sigma_percent > 0.0 for row in rows)

    def test_margin_sigma_is_driven_by_the_rail_axis(self, node, op_simulators):
        """Hold SNM does not couple to the bit-line wire parasitics (the
        pass gates are off), so its Monte-Carlo spread must come entirely
        from the supply-rail resistance samples."""
        study = MonteCarloTdpStudy(
            node, doe=StudyDOE(array_sizes=(16,)), n_samples=60
        )
        surface = study.response_surface("hold_snm", 16, simulators=op_simulators)
        assert surface.d_rvar == pytest.approx(0.0, abs=1e-6)
        assert surface.d_cvar == pytest.approx(0.0, abs=1e-6)
        assert surface.d_rail_rvar != 0.0
        rows = study.operation_sigma_rows(
            "hold_snm", n_wordlines=16, simulators=op_simulators
        )
        assert any(row.sigma_percent > 0.0 for row in rows)

    def test_rail_samples_share_the_bitline_seed(self, node):
        study = MonteCarloTdpStudy(
            node, doe=StudyDOE(array_sizes=(16,)), n_samples=25
        )
        point = study.doe.monte_carlo_points(n_wordlines=16)[0]
        bitline, rails = study.column_variation_samples_batch(point)
        assert rails.net.startswith("VSS")
        assert len(rails) == len(bitline)
        # Same seeded draw: sample i of both arrays is the same wafer, and
        # the bit line is the one the read-path study samples.
        alone = study.rc_variation_samples_batch(point)
        np.testing.assert_array_equal(rails.parameter_matrix, alone.parameter_matrix)
        np.testing.assert_array_equal(bitline.rvar, alone.rvar)
        np.testing.assert_array_equal(bitline.cvar, alone.cvar)

    def test_surface_is_cached_per_operation_and_size(self, node, op_simulators):
        study = MonteCarloTdpStudy(
            node, doe=StudyDOE(array_sizes=(16,)), n_samples=10
        )
        first = study.response_surface("write", 16, simulators=op_simulators)
        assert study.response_surface("write", 16) is first
