"""Tests of the worst-case study, Monte-Carlo study, validation and comparison.

These exercise the paper's actual experiments on reduced grids so the
whole file still runs in seconds; the full-size runs live in the
benchmarks.
"""

import pytest

from repro.core.campaign import CampaignWorkerState
from repro.core.comparison import ComparisonError, OptionComparison
from repro.core.montecarlo import MonteCarloTdpStudy
from repro.core.results import TdpSigmaRow, WorstCaseTdRow
from repro.core.study import MultiPatterningSRAMStudy, StudyError
from repro.core.validation import FormulaValidation
from repro.core.worst_case import WorstCaseStudy
from repro.variability.doe import StudyDOE


@pytest.fixture(scope="module")
def small_doe():
    return StudyDOE(array_sizes=(16, 64), overlay_budgets_nm=(3.0, 8.0))


@pytest.fixture(scope="module")
def worst_case_study(node, small_doe):
    return WorstCaseStudy(node, doe=small_doe)


@pytest.fixture(scope="module")
def table1_rows(worst_case_study):
    return worst_case_study.table1()


@pytest.fixture(scope="module")
def figure4_rows(worst_case_study):
    return worst_case_study.figure4()


@pytest.fixture(scope="module")
def mc_study(node, small_doe, analytical_model):
    return MonteCarloTdpStudy(node, doe=small_doe, model=analytical_model, n_samples=150, seed=7)


@pytest.fixture(scope="module")
def table4_rows(mc_study):
    return mc_study.table4()


class TestWorstCaseStudy:
    def test_table1_covers_all_options(self, table1_rows):
        assert [row.option_name for row in table1_rows] == ["LELELE", "SADP", "EUV"]

    def test_table1_le3_dominates_cbl(self, table1_rows):
        by_name = {row.option_name: row for row in table1_rows}
        assert by_name["LELELE"].delta_cbl_percent > 30.0
        assert by_name["SADP"].delta_cbl_percent < 15.0
        assert by_name["EUV"].delta_cbl_percent < 15.0
        assert by_name["LELELE"].delta_cbl_percent > 3.0 * by_name["SADP"].delta_cbl_percent

    def test_table1_sadp_capacitance_below_euv(self, table1_rows):
        """Paper: SADP's worst-case Cbl impact is even smaller than EUV's."""
        by_name = {row.option_name: row for row in table1_rows}
        assert by_name["SADP"].delta_cbl_percent < by_name["EUV"].delta_cbl_percent

    def test_table1_resistance_drops_at_worst_corners(self, table1_rows):
        for row in table1_rows:
            assert row.delta_rbl_percent < 0.0

    def test_table1_sadp_worst_corner_matches_paper(self, table1_rows):
        """Paper Table I: SADP worst case is core CD -3sigma, spacer -3sigma."""
        sadp_row = next(row for row in table1_rows if row.option_name == "SADP")
        assert sadp_row.corner_parameters["cd:core"] == pytest.approx(-3.0)
        assert sadp_row.corner_parameters["spacer"] == pytest.approx(-1.5)

    def test_table1_le3_worst_corner_has_opposing_overlays(self, table1_rows):
        le3_row = next(row for row in table1_rows if row.option_name == "LELELE")
        overlays = [value for name, value in le3_row.corner_parameters.items() if name.startswith("ol:")]
        assert len(overlays) == 2
        assert overlays[0] * overlays[1] < 0.0    # the two masks move in opposite directions

    def test_worst_corner_caching(self, worst_case_study):
        assert worst_case_study.find_worst_corner("EUV") is worst_case_study.find_worst_corner("EUV")

    def test_figure2_distortion_records(self, worst_case_study):
        records = worst_case_study.figure2()
        assert len(records) == 3
        le3_record = next(r for r in records if r.option_name == "LELELE")
        # The worst LE3 corner visibly moves or widens the central tracks.
        assert any(abs(track.center_shift_nm) > 1.0 or abs(track.width_change_nm) > 1.0
                   for track in le3_record.tracks)
        # SADP keeps every printed track inside a few nm of its drawn position.
        sadp_record = next(r for r in records if r.option_name == "SADP")
        assert all(abs(track.center_shift_nm) < 5.0 for track in sadp_record.tracks)

    def test_figure4_rows_structure(self, figure4_rows, small_doe):
        assert [row.n_wordlines for row in figure4_rows] == list(small_doe.array_sizes)
        for row in figure4_rows:
            assert set(row.tdp_percent_by_option) == set(small_doe.option_names)
            assert row.nominal_td_ps > 0.0

    def test_figure4_le3_penalty_dominates(self, figure4_rows):
        for row in figure4_rows:
            assert row.tdp_percent("LELELE") > 10.0
            assert row.tdp_percent("LELELE") > row.tdp_percent("SADP")
            assert row.tdp_percent("LELELE") > row.tdp_percent("EUV")

    def test_figure4_sadp_and_euv_small(self, figure4_rows):
        for row in figure4_rows:
            assert abs(row.tdp_percent("SADP")) < 10.0
            assert abs(row.tdp_percent("EUV")) < 10.0


class TestFormulaValidation:
    @pytest.fixture(scope="class")
    def validation(self, node, small_doe, analytical_model, worst_case_study):
        return FormulaValidation(
            node,
            doe=small_doe,
            model=analytical_model,
            worst_case=worst_case_study,
        )

    def test_table2_rows(self, validation, small_doe):
        rows = validation.table2()
        assert [row.n_wordlines for row in rows] == list(small_doe.array_sizes)
        for row in rows:
            assert row.simulation_td_s > 0.0
            assert row.formula_td_s > 0.0
            assert 0.2 < row.ratio < 5.0

    def test_table3_interleaves_methods(self, validation):
        rows = validation.table3(array_sizes=[16])
        assert [row.method for row in rows] == ["simulation", "formula"]

    def test_table3_formula_tracks_simulation_for_le3(self, validation):
        rows = validation.table3(array_sizes=[16, 64])
        by_key = {(row.array_label, row.method): row for row in rows}
        for label in ("10x16", "10x64"):
            simulated = by_key[(label, "simulation")].tdp_percent_by_option["LELELE"]
            formula = by_key[(label, "formula")].tdp_percent_by_option["LELELE"]
            assert formula == pytest.approx(simulated, abs=8.0)
            assert formula > 10.0

    def test_agreement_metric(self, validation):
        gaps = validation.tdp_agreement_percent(validation.table3(array_sizes=[16]))
        assert set(gaps) == {"LELELE", "SADP", "EUV"}
        assert all(gap >= 0.0 for gap in gaps.values())


class TestTablesSimulateOnce:
    """Every table reads the worst-case study's one memoised campaign."""

    @pytest.fixture()
    def prepared_keys(self, monkeypatch):
        keys = []
        original = CampaignWorkerState.prepare_item

        def counting(state, item):
            keys.append(item.key)
            return original(state, item)

        monkeypatch.setattr(CampaignWorkerState, "prepare_item", counting)
        return keys

    def test_repeated_validation_tables_reuse_records(self, node, prepared_keys):
        validation = FormulaValidation(node, doe=StudyDOE(array_sizes=(16,)))
        validation.table3()
        assert len(prepared_keys) == 4  # the nominal and three corners
        validation.tdp_agreement_percent()
        validation.table2()
        validation.worst_case.figure4()
        validation.table3()
        assert len(prepared_keys) == 4

    def test_study_shares_its_worst_case_campaign(self, node, prepared_keys):
        study = MultiPatterningSRAMStudy(
            node, doe=StudyDOE(array_sizes=(16,)), monte_carlo_samples=60
        )
        study.run_table3()
        assert len(prepared_keys) == 4
        study.worst_case.figure4()
        study.run_figure4(array_sizes=(16,))
        study.run_table2()
        assert len(prepared_keys) == 4


class TestMonteCarloStudy:
    def test_records_are_reproducible(self, mc_study):
        first = mc_study.figure5(n_wordlines=64)[0]
        second = mc_study.figure5(n_wordlines=64)[0]
        assert first.tdp_percent_samples == second.tdp_percent_samples

    def test_figure5_has_three_options(self, mc_study):
        records = mc_study.figure5()
        assert [record.option_name for record in records] == ["LELELE", "SADP", "EUV"]
        for record in records:
            assert record.n_samples == 150
            assert len(record.tdp_percent_samples) == 150

    def test_le3_sigma_exceeds_sadp_at_8nm(self, mc_study):
        records = {record.option_name: record for record in mc_study.figure5()}
        assert records["LELELE"].sigma_percent > 1.5 * records["SADP"].sigma_percent

    def test_table4_overlay_sweep_is_monotonic(self, table4_rows):
        le3_rows = [row for row in table4_rows if row.option_name == "LELELE"]
        le3_rows.sort(key=lambda row: row.overlay_three_sigma_nm)
        sigmas = [row.sigma_percent for row in le3_rows]
        assert sigmas[0] < sigmas[-1]

    def test_table4_le3_at_tight_overlay_comparable_to_others(self, table4_rows):
        """Paper conclusion: a 3 nm OL budget makes LE3 comparable to SADP/EUV."""
        by_label = {row.label: row for row in table4_rows}
        le3_tight = by_label["LELELE 3nm OL"].sigma_percent
        sadp_sigma = by_label["SADP"].sigma_percent
        euv_sigma = by_label["EUV"].sigma_percent
        assert le3_tight < 2.0 * max(sadp_sigma, euv_sigma)

    def test_tdp_distributions_centered_near_zero(self, mc_study):
        for record in mc_study.figure5():
            assert abs(record.summary.mean) < 3.0 * record.summary.std + 1.0

    def test_overlay_sensitivity_pairs(self, mc_study):
        pairs = mc_study.overlay_sensitivity()
        assert [overlay for overlay, _ in pairs] == [3.0, 8.0]
        assert pairs[0][1] < pairs[1][1]

    def test_rejects_too_few_samples(self, node):
        with pytest.raises(Exception):
            MonteCarloTdpStudy(node, n_samples=1)


class TestOptionComparison:
    def test_verdict_recommends_sadp_at_loose_overlay(self, figure4_rows, table4_rows):
        verdict = OptionComparison(figure4_rows, table4_rows).verdict()
        assert verdict.recommended_option == "SADP"
        assert verdict.worst_case_leader in ("SADP", "EUV")

    def test_sigma_ratio_matches_paper_headline(self, figure4_rows, table4_rows):
        comparison = OptionComparison(figure4_rows, table4_rows)
        assert comparison.sigma_ratio_le3_over_sadp(8.0) > 1.5

    def test_overlay_requirement_is_tightest_budget(self, figure4_rows, table4_rows):
        requirement = OptionComparison(figure4_rows, table4_rows).required_overlay_for_parity(
            tolerance_percent=60.0
        )
        assert requirement.reference_option == "SADP"
        if requirement.achievable:
            assert requirement.required_overlay_nm in (3.0, 8.0)

    def test_euv_allowed_when_manufacturable(self, figure4_rows, table4_rows):
        verdict = OptionComparison(figure4_rows, table4_rows).verdict(euv_manufacturable=True)
        assert verdict.recommended_option in ("SADP", "EUV")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ComparisonError):
            OptionComparison([], [])

    def test_sigma_lookup_errors(self, figure4_rows, table4_rows):
        comparison = OptionComparison(figure4_rows, table4_rows)
        with pytest.raises(ComparisonError):
            comparison.sigma_for("SAQP")


class TestMultiPatterningSRAMStudy:
    def test_full_reduced_run_is_complete(self, node):
        study = MultiPatterningSRAMStudy(
            node, doe=StudyDOE(array_sizes=(16,), overlay_budgets_nm=(3.0, 8.0)),
            monte_carlo_samples=60, seed=1,
        )
        report = study.run()
        assert report.is_complete()
        assert len(report.table1) == 3
        assert len(report.figure4) == 1
        assert len(report.table2) == 1
        assert len(report.table3) == 2
        assert len(report.figure5) == 3
        assert len(report.table4) == 4   # 2 LE3 overlay points + SADP + EUV

    def test_verdict_from_report(self, node):
        study = MultiPatterningSRAMStudy(
            node, doe=StudyDOE(array_sizes=(16,), overlay_budgets_nm=(3.0, 8.0)),
            monte_carlo_samples=60, seed=1,
        )
        report = study.run()
        verdict = study.verdict(report)
        assert verdict.recommended_option in ("SADP", "LELELE")
        assert verdict.notes

    def test_invalid_sample_count_rejected(self, node):
        with pytest.raises(StudyError):
            MultiPatterningSRAMStudy(node, monte_carlo_samples=1)
