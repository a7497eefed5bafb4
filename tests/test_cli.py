"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENT_COMMANDS, build_parser, main


FAST = ["--sizes", "16", "--samples", "40", "--seed", "3"]


class TestParser:
    def test_all_experiment_commands_registered(self):
        parser = build_parser()
        for command in EXPERIMENT_COMMANDS + ("all", "verdict", "yield"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_common_options_after_subcommand(self):
        args = build_parser().parse_args(["table4", "--samples", "123", "--overlay-nm", "5"])
        assert args.samples == 123
        assert args.overlay_nm == 5.0

    def test_sizes_accept_multiple_values(self):
        args = build_parser().parse_args(["fig4", "--sizes", "16", "64"])
        assert args.sizes == [16, 64]

    def test_yield_specific_options(self):
        args = build_parser().parse_args(["yield", "--budget", "12", "--ppm", "50"])
        assert args.budget == 12.0
        assert args.ppm == 50.0

    def test_workers_option_on_any_subcommand(self):
        args = build_parser().parse_args(["fig4", "--workers", "4"])
        assert args.workers == 4

    def test_operation_commands_registered(self):
        parser = build_parser()
        for command in ("write", "margins"):
            args = parser.parse_args([command])
            assert args.command == command
            assert args.mc_sigma is False
        assert parser.parse_args(["write", "--mc-sigma"]).mc_sigma is True

    def test_campaign_operations_axis_option(self):
        args = build_parser().parse_args(
            ["campaign", "--operations", "read", "write", "hold_snm"]
        )
        assert args.operations == ["read", "write", "hold_snm"]

    def test_campaign_rejects_unknown_operation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--operations", "erase"])

    def test_campaign_specific_options(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--format", "json",
                "--store", "runs/x",
                "--overlay-sweep", "3", "8",
                "--stored-values", "0", "1",
                "--strap-intervals", "64", "256",
                "--methods", "backward-euler", "trapezoidal",
            ]
        )
        assert args.format == "json"
        assert args.store == "runs/x"
        assert args.overlay_sweep == [3.0, 8.0]
        assert args.stored_values == [0, 1]
        assert args.strap_intervals == [64, 256]
        assert args.methods == ["backward-euler", "trapezoidal"]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_table1_prints_paper_style_table(self, capsys):
        assert main(["table1"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "LELELE" in out and "SADP" in out and "EUV" in out

    def test_table4_respects_sample_count(self, capsys):
        assert main(["table4"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out
        assert "LELELE 8nm OL" in out

    def test_fig3_emits_csv(self, capsys):
        assert main(["fig3"] + FAST) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("label,")

    def test_fig2_emits_distortion_strips(self, capsys):
        assert main(["fig2"] + FAST) == 0
        out = capsys.readouterr().out
        assert "drawn" in out and "printed" in out

    def test_fig4_runs_simulations(self, capsys):
        assert main(["fig4"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Nominal td (ps)" in out
        assert "10x16" in out

    def test_verdict_names_an_option(self, capsys):
        assert main(["verdict"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Recommended multiple-patterning option:" in out

    def test_yield_reports_ppm_and_requirement(self, capsys):
        assert main(["yield", "--budget", "8", "--ppm", "1000"] + FAST) == 0
        out = capsys.readouterr().out
        assert "violation_probability" in out
        assert "ppm target" in out

    def test_overlay_option_changes_the_study(self, capsys):
        assert main(["table1", "--overlay-nm", "3"] + FAST) == 0
        tight = capsys.readouterr().out
        assert main(["table1", "--overlay-nm", "8"] + FAST) == 0
        loose = capsys.readouterr().out
        assert tight != loose
        assert "ol:B=-3.0" in tight or "ol:B=+3.0" in tight

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["table1", "--output", str(target)] + FAST) == 0
        assert capsys.readouterr().out == ""
        assert "Table I" in target.read_text()

    def test_table2_and_table3(self, capsys):
        assert main(["table2"] + FAST) == 0
        assert "Table II" in capsys.readouterr().out
        assert main(["table3"] + FAST) == 0
        assert "Table III" in capsys.readouterr().out

    def test_fig5_prints_histograms(self, capsys):
        assert main(["fig5"] + FAST) == 0
        out = capsys.readouterr().out
        assert "tdp distribution" in out


class TestCampaignCommand:
    def test_campaign_text_report(self, capsys):
        assert main(["campaign"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Simulation campaign: 4 records" in out
        assert "(nominal)" in out and "LELELE" in out

    def test_campaign_json_report(self, capsys):
        assert main(["campaign", "--format", "json"] + FAST) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_records"] == 4
        assert report["campaign"]["array_sizes"] == [16]
        kinds = {record["kind"] for record in report["records"]}
        assert kinds == {"nominal", "corner"}

    def test_campaign_csv_report(self, capsys):
        assert main(["campaign", "--format", "csv"] + FAST) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("key,kind,scenario,")
        assert len(lines) == 5

    def test_campaign_store_resume(self, tmp_path, capsys):
        def physics(text):
            # Everything above the solver summary is the physics report
            # and must be byte-identical across a resume; the summary
            # itself counts this run's solves, which a fully-resumed run
            # legitimately reports as zero.
            return text.split("Solver summary")[0]

        store = str(tmp_path / "store")
        assert main(["campaign", "--store", store] + FAST) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "store" / "campaign.json").exists()
        assert len(list((tmp_path / "store" / "items").glob("*.json"))) == 4
        assert main(["campaign", "--store", store] + FAST) == 0
        resumed = capsys.readouterr().out
        assert physics(resumed) == physics(first)
        assert "Solver summary" in resumed
        # The resumed run loaded every record from the store: no solves.
        assert "| 0" in resumed.split("Solver summary")[1]

    def test_campaign_workers_and_scenario_axes(self, capsys):
        assert (
            main(
                ["campaign", "--workers", "2", "--stored-values", "0", "1"] + FAST
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Simulation campaign: 8 records" in out

    def test_campaign_operations_axis(self, capsys):
        assert main(["campaign", "--operations", "read", "write"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Simulation campaign: 8 records" in out
        assert "write" in out

    def test_fig4_with_output_file_smoke(self, tmp_path, capsys):
        target = tmp_path / "fig4.txt"
        assert main(["fig4", "--sizes", "16", "--output", str(target)] + FAST[2:]) == 0
        assert capsys.readouterr().out == ""
        content = target.read_text()
        assert "Fig. 4" in content and "10x16" in content

    def test_fig4_workers_matches_serial(self, capsys):
        assert main(["fig4"] + FAST) == 0
        serial = capsys.readouterr().out
        assert main(["fig4", "--workers", "2"] + FAST) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestOperationCommands:
    def test_write_command_prints_the_impact_table(self, capsys):
        assert main(["write", "--workers", "2"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Operation suite (write)" in out
        assert "Nominal (ps)" in out
        assert "10x16" in out

    def test_margins_command_prints_both_snm_tables(self, capsys):
        assert main(["margins"] + FAST) == 0
        out = capsys.readouterr().out
        assert "hold_snm" in out and "read_snm" in out
        assert "Nominal (mV)" in out
        assert "10x16" in out

    def test_write_workers_matches_serial(self, capsys):
        assert main(["write"] + FAST) == 0
        serial = capsys.readouterr().out
        assert main(["write", "--workers", "2"] + FAST) == 0
        assert capsys.readouterr().out == serial


class TestDeclarativeCommands:
    """The spec-driven surface: --version, run, spec dump/validate, exit 2."""

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_spec_dump_emits_valid_json(self, capsys):
        assert main(["spec", "dump", "--kind", "campaign"] + FAST) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "campaign"
        assert payload["array"]["sizes"] == [16]
        assert payload["operation"]["samples"] == 40
        assert payload["execution"]["seed"] == 3
        assert "solver" not in payload["execution"]

    def test_spec_dump_validate_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert (
            main(["spec", "dump", "--kind", "worst_case", "--output", str(spec_path)])
            == 0
        )
        assert main(["spec", "validate", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: worst_case spec")

    def test_run_executes_a_dumped_campaign_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        assert main(["spec", "dump", "--output", str(spec_path)] + FAST) == 0
        capsys.readouterr()
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "Simulation campaign: 4 records" in out

    def test_run_matches_the_campaign_shim(self, tmp_path, capsys):
        def strip_wall_clock(csv_text):
            # The trailing wall_s column is wall-clock timing, the one
            # legitimately nondeterministic field of a record.
            return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]

        spec_path = tmp_path / "campaign.json"
        assert main(["spec", "dump", "--output", str(spec_path)] + FAST) == 0
        capsys.readouterr()
        assert main(["run", str(spec_path), "--format", "csv"]) == 0
        from_spec = capsys.readouterr().out
        assert main(["campaign", "--format", "csv"] + FAST) == 0
        from_shim = capsys.readouterr().out
        assert strip_wall_clock(from_spec) == strip_wall_clock(from_shim)

    def test_run_json_has_records(self, tmp_path, capsys):
        spec_path = tmp_path / "t1.json"
        assert main(["spec", "dump", "--kind", "worst_case", "--output", str(spec_path)]) == 0
        capsys.readouterr()
        assert main(["run", str(spec_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_records"] == 3
        assert payload["records"]

    def test_missing_spec_file_exits_two(self, capsys):
        assert main(["run", "no-such-spec.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")

    def test_invalid_spec_document_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "erase"}', encoding="utf-8")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "kind" in err and "Traceback" not in err

    def test_mismatched_store_exits_two(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "--store", store] + FAST) == 0
        capsys.readouterr()
        assert main(["campaign", "--store", store, "--sizes", "16", "64"] + FAST[2:]) == 2
        err = capsys.readouterr().err
        assert "different campaign" in err

    def test_table1_shim_matches_study_rendering(self, capsys):
        from repro.reporting.tables import format_table1
        from repro.core.worst_case import WorstCaseStudy
        from repro.technology.node import n10

        assert main(["table1"] + FAST) == 0
        out = capsys.readouterr().out
        assert out == format_table1(WorstCaseStudy(n10()).table1()) + "\n"


class TestSpecDumpRunConsistency:
    """Every spec `spec dump` emits must be accepted by `repro run`."""

    def test_operations_dump_with_axis_flags_runs(self, tmp_path, capsys):
        spec_path = tmp_path / "ops.json"
        assert (
            main(
                [
                    "spec", "dump",
                    "--kind", "operations",
                    "--operations", "write",
                    "--overlay-sweep", "5",
                    "--output", str(spec_path),
                ]
                + FAST
            )
            == 0
        )
        assert main(["spec", "validate", str(spec_path)]) == 0
        capsys.readouterr()
        assert main(["run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "Operation suite (write)" in out

    def test_bad_scalar_in_spec_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            '{"kind": "campaign", "operation": {"samples": "many"}}',
            encoding="utf-8",
        )
        assert main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err


class TestServiceVerbs:
    """The `serve` / `submit` verbs and the hardened run/submit error paths."""

    def test_serve_and_submit_parsers_registered(self):
        parser = build_parser()
        serve = parser.parse_args(
            ["serve", "--port", "0", "--cache-dir", "runs/cache", "--workers", "3"]
        )
        assert serve.command == "serve"
        assert serve.port == 0 and serve.cache_dir == "runs/cache" and serve.workers == 3
        submit = parser.parse_args(
            ["submit", "spec.json", "--wait", "--format", "csv",
             "--url", "http://127.0.0.1:9", "--timeout", "7", "--output", "x.csv"]
        )
        assert submit.command == "submit"
        assert submit.wait and submit.format == "csv" and submit.timeout == 7.0

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_run_missing_spec_exits_two_for_every_format(self, fmt, capsys):
        assert main(["run", "no-such-spec.json", "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err
        assert err.count("\n") == 1  # one-line message

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_submit_missing_spec_exits_two_for_every_format(self, fmt, capsys):
        assert main(["submit", "no-such-spec.json", "--wait", "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err
        assert err.count("\n") == 1

    def test_run_unreadable_spec_directory_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err

    def test_submit_without_server_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(["spec", "dump", "--output", str(spec_path)] + FAST) == 0
        capsys.readouterr()
        # Port 9 (discard) refuses connections; the client must surface a
        # one-line ServiceError, not a traceback.
        assert main(
            ["submit", str(spec_path), "--url", "http://127.0.0.1:9", "--wait"]
        ) == 2
        err = capsys.readouterr().err
        assert "cannot reach the experiment server" in err

    def test_run_output_into_missing_directory_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(["spec", "dump", "--kind", "worst_case", "--output", str(spec_path)]) == 0
        capsys.readouterr()
        missing = tmp_path / "no" / "such" / "dir" / "out.txt"
        assert main(["run", str(spec_path), "--output", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "Traceback" not in err

    def test_run_output_writes_the_report_atomically(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(["spec", "dump", "--kind", "worst_case", "--output", str(spec_path)]) == 0
        out_path = tmp_path / "report.csv"
        out_path.write_text("stale", encoding="utf-8")
        assert main(["run", str(spec_path), "--format", "csv", "--output", str(out_path)]) == 0
        capsys.readouterr()
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("record,") and "stale" not in text
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_submit_round_trip_against_a_live_server(self, tmp_path, capsys):
        from repro.service.server import ExperimentServer

        spec_path = tmp_path / "spec.json"
        assert main(["spec", "dump", "--kind", "worst_case", "--output", str(spec_path)]) == 0
        capsys.readouterr()
        with ExperimentServer(cache_dir=tmp_path / "cache", workers=1) as server:
            out_path = tmp_path / "result.json"
            assert main(
                ["submit", str(spec_path), "--url", server.url,
                 "--wait", "--format", "json", "--output", str(out_path)]
            ) == 0
            payload = json.loads(out_path.read_text(encoding="utf-8"))
            assert payload["kind"] == "worst_case" and payload["n_records"] > 0
            # Fire-and-forget submission prints the ticket (now a cache hit).
            assert main(["submit", str(spec_path), "--url", server.url]) == 0
            ticket = json.loads(capsys.readouterr().out)
            assert ticket["cached"] is True and ticket["state"] == "done"


class TestFailurePolicyVerbs:
    """The fault-tolerance surface of the CLI: --failure-policy, the
    partial-result exit code 3, and the serve/submit robustness knobs."""

    def test_failure_policy_parser(self):
        args = build_parser().parse_args(
            ["run", "spec.json", "--failure-policy", "skip"]
        )
        assert args.failure_policy == "skip"
        assert build_parser().parse_args(["run", "spec.json"]).failure_policy is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spec.json", "--failure-policy", "explode"])

    def test_serve_parser_accepts_durability_knobs(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--journal", "runs/journal.jsonl",
                "--job-timeout", "120",
                "--drain-timeout", "3",
            ]
        )
        assert args.journal == "runs/journal.jsonl"
        assert args.job_timeout == 120.0
        assert args.drain_timeout == 3.0
        assert build_parser().parse_args(["serve"]).drain_timeout == 10.0

    def test_submit_parser_accepts_retries(self):
        assert build_parser().parse_args(["submit", "s.json", "--retries", "5"]).retries == 5
        assert build_parser().parse_args(["submit", "s.json"]).retries == 2

    def test_run_with_skip_policy_exits_three_on_a_partial_result(
        self, tmp_path, capsys
    ):
        from repro.testing import FaultPlan
        from repro.testing.faults import injected

        spec_path = tmp_path / "campaign.json"
        assert main(["spec", "dump", "--output", str(spec_path)] + FAST) == 0
        capsys.readouterr()
        # Every solver call faults: with `skip` the run still finishes,
        # reports the failed items, and signals partiality via exit 3.
        with injected(FaultPlan(solver_fail_rate=1.0, solver_fail_attempts=99)):
            assert main(["run", str(spec_path), "--failure-policy", "skip"]) == 3
        out = capsys.readouterr().out
        assert "PARTIAL" in out
        assert "injected" in out

    def test_run_partial_json_counts_failures(self, tmp_path, capsys):
        from repro.testing import FaultPlan
        from repro.testing.faults import injected

        spec_path = tmp_path / "campaign.json"
        assert main(["spec", "dump", "--output", str(spec_path)] + FAST) == 0
        capsys.readouterr()
        with injected(FaultPlan(solver_fail_rate=1.0, solver_fail_attempts=99)):
            assert main(
                ["run", str(spec_path), "--failure-policy", "skip", "--format", "json"]
            ) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_failures"] > 0
        assert any(r.get("record") == "failure" for r in payload["records"])

    def test_clean_run_still_exits_zero_with_a_policy(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        assert main(["spec", "dump", "--output", str(spec_path)] + FAST) == 0
        capsys.readouterr()
        assert main(["run", str(spec_path), "--failure-policy", "retry"]) == 0
