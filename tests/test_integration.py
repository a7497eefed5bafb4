"""End-to-end integration tests.

These walk the complete pipeline the way a user of the library would —
layout → patterning → extraction → circuit → td → study → report — and
check the cross-module contracts plus the paper's headline qualitative
results on a reduced grid.
"""

import pytest

from repro import MultiPatterningSRAMStudy, n10
from repro.circuit.spice_io import write_spice
from repro.core import OptionComparison, model_from_technology
from repro.core.operations import OperationSimulators, create_operation
from repro.core.worst_case import WorstCaseStudy
from repro.extraction import ParameterizedLPE
from repro.layout import generate_array_layout, library_from_wires, loads_gdt, dumps_gdt
from repro.patterning import le3, paper_options
from repro.reporting import (
    figure4_csv,
    figure5_csv,
    format_figure4,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
)
from repro.sram import ReadPathSimulator
from repro.variability.doe import StudyDOE


@pytest.fixture(scope="module")
def small_study(node):
    return MultiPatterningSRAMStudy(
        node,
        doe=StudyDOE(array_sizes=(16, 64), overlay_budgets_nm=(3.0, 8.0)),
        monte_carlo_samples=100,
        seed=99,
    )


@pytest.fixture(scope="module")
def report(small_study):
    return small_study.run()


class TestFullPipeline:
    def test_layout_to_td_pipeline_by_hand(self, node):
        """Drive every stage manually, the way the examples do."""
        layout = generate_array_layout(16, node=node)
        option = le3()
        printed = option.apply(layout.metal1_pattern, {"cd:A": 3.0, "ol:B": -8.0})
        lpe = ParameterizedLPE(node)
        nominal = lpe.extract_pattern(layout.metal1_pattern)
        distorted = lpe.extract_pattern(printed.printed)
        bl_net, _ = layout.central_pair_nets()
        assert distorted[bl_net].capacitance_total_f != nominal[bl_net].capacitance_total_f

        read = create_operation("read")
        sims = OperationSimulators(node)
        nominal_td = read.measure_nominal(sims, 16)
        varied_td = read.measure_with_patterning(sims, 16, option, {"cd:A": 3.0, "ol:B": -8.0})
        assert varied_td.td_s != nominal_td.td_s

    def test_report_is_complete(self, report):
        assert report.is_complete()

    def test_headline_result_le3_worst_case_penalty(self, report):
        """Paper abstract: LE3 worst-case read-time penalty ~20%, others <3%."""
        for row in report.figure4:
            assert 10.0 < row.tdp_percent("LELELE") < 40.0
            assert abs(row.tdp_percent("SADP")) < 10.0
            assert abs(row.tdp_percent("EUV")) < 10.0

    def test_headline_result_sigma_ratio(self, report):
        """Paper abstract: LE3 tdp sigma up to ~2x the other options."""
        by_label = {row.label: row.sigma_percent for row in report.table4}
        assert by_label["LELELE 8nm OL"] > 1.5 * by_label["SADP"]
        assert by_label["LELELE 3nm OL"] < by_label["LELELE 8nm OL"]

    def test_verdict_matches_paper_conclusion(self, small_study, report):
        verdict = small_study.verdict(report)
        assert verdict.recommended_option == "SADP"
        assert verdict.overlay_requirement is not None

    def test_formula_validation_rows_cover_grid(self, report):
        assert {row.array_label for row in report.table2} == {"10x16", "10x64"}
        assert {row.method for row in report.table3} == {"simulation", "formula"}

    def test_every_report_section_formats(self, report):
        assert "Table I" in format_table1(report.table1)
        assert "Fig. 4" in format_figure4(report.figure4)
        assert "Table II" in format_table2(report.table2)
        assert "Table III" in format_table3(report.table3)
        assert "Table IV" in format_table4(report.table4)
        assert figure4_csv(report.figure4).count("\n") == len(report.figure4)
        assert figure5_csv(report.figure5)

    def test_layouts_round_trip_through_gdt(self, node):
        layout = generate_array_layout(16, node=node)
        library = library_from_wires("array16", layout.wires(), layer_map=layout.layer_map)
        recovered = loads_gdt(dumps_gdt(library), layer_map=layout.layer_map)
        assert len(recovered.cell("array16").wires) == len(layout.wires())

    def test_read_circuit_exports_to_spice(self, node):
        simulator = ReadPathSimulator(node)
        column = simulator.column_parasitics(16)
        read_circuit = simulator.build_circuit(16, column)
        deck = write_spice(read_circuit.circuit)
        assert deck.count("\nR") >= 16          # ladder resistors
        assert deck.count("\nM") == 9           # 6 cell + 3 precharge devices
        assert ".end" in deck

    def test_all_paper_options_share_the_interface(self, node, array64):
        lpe = ParameterizedLPE(node)
        bl_net, _ = array64.central_pair_nets()
        for option in paper_options():
            specs = option.parameter_specs(node.variations)
            assert specs
            nominal = option.nominal_result(array64.metal1_pattern)
            assert len(nominal.printed) == len(array64.metal1_pattern)
            variation = lpe.rc_variation(array64.metal1_pattern, option, {}, bl_net)
            assert variation.cvar == pytest.approx(1.0, abs=1e-9)


class TestOverlayBudgetScenario:
    def test_tight_overlay_node_reduces_le3_worst_case(self, node):
        """Re-running the worst-case study at a 3 nm OL budget shrinks the LE3 impact."""
        loose_study = WorstCaseStudy(node, doe=StudyDOE(array_sizes=(16,)))
        tight_node = n10(overlay_three_sigma_nm=3.0)
        tight_study = WorstCaseStudy(tight_node, doe=StudyDOE(array_sizes=(16,)))
        loose = loose_study.find_worst_corner("LELELE").delta_cbl_percent
        tight = tight_study.find_worst_corner("LELELE").delta_cbl_percent
        assert tight < loose
        assert tight < 0.6 * loose

    def test_model_consistency_between_studies(self, node):
        """The analytical model built standalone matches the study's own."""
        study = MultiPatterningSRAMStudy(node, doe=StudyDOE(array_sizes=(16,)), monte_carlo_samples=10)
        standalone = model_from_technology(node)
        assert study.analytical_model.rbl_per_cell_ohm == pytest.approx(standalone.rbl_per_cell_ohm)
        assert study.analytical_model.td_nominal_s(64) == pytest.approx(standalone.td_nominal_s(64))
