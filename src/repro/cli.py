"""Command-line interface.

The CLI is a thin shell over the declarative API (:mod:`repro.api`): an
experiment is described by a serialisable
:class:`~repro.core.spec.ExperimentSpec`, and ``repro run`` executes any
spec document directly::

    python -m repro run spec.json --format json    # run a stored spec
    python -m repro spec dump --kind campaign      # print the equivalent spec
    python -m repro spec validate spec.json        # check a spec document

The classic sub-commands are kept as shims that build the equivalent spec
under the hood (``campaign``, ``write``, ``margins``, ``yield``,
``table1``, ``table4``), and the paper's figure/table renderings drive the
study front door directly::

    python -m repro table1                      # worst-case dCbl/dRbl
    python -m repro fig4 --sizes 16 64          # simulated worst-case penalties
    python -m repro fig4 --workers 4            # ... on four cores
    python -m repro table4 --samples 500        # Monte-Carlo tdp sigma
    python -m repro verdict                     # the Section-IV recommendation
    python -m repro yield --budget 10 --ppm 100 # spec-compliance analysis
    python -m repro campaign --workers 4 --format json --store runs/paper
    python -m repro all --output report.txt     # every table, to a file

The service verbs run the library as a long-lived, cache-accelerated
experiment server (see :mod:`repro.service`)::

    python -m repro serve --port 8765 --cache-dir runs/cache --workers 2
    python -m repro submit spec.json --wait --format csv --output rows.csv

Global options select the overlay budget, the array sizes, the Monte-Carlo
sample count, the random seed and the worker count, so parameter studies
are one shell loop away.  Exit codes: 0 on success, 2 on domain errors
(bad specs, unknown operations, mismatched stores — a one-line message,
never a traceback), 3 when a ``run`` completes *partially* (a ``skip`` or
``retry`` failure policy isolated per-item failures into error rows).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from .api import load_spec, run as run_experiment
from .core.results import atomic_write_text
from .core.campaign import CAMPAIGN_METHODS, CampaignError
from .core.comparison import ComparisonError, OptionComparison
from .core.montecarlo import MonteCarloStudyError
from .core.operations import OPERATION_NAMES, OperationError
from .core.failures import FAILURE_POLICIES
from .core.spec import (
    EXPERIMENT_KINDS,
    HIGH_SIGMA_MODELS,
    ArraySpec,
    ExecutionSpec,
    ExperimentSpec,
    HighSigmaSpec,
    OperationSpec,
    ScenarioSpec,
    SpecError,
    TechnologySpec,
    scenario_spec_grid,
)
from .core.study import MultiPatterningSRAMStudy, StudyError
from .core.worst_case import WorstCaseStudyError
from .core.yield_analysis import YieldAnalysisError
from .highsigma import HighSigmaError
from .reporting.figures import figure2_ascii, figure3_csv, figure5_ascii
from .service.client import ServiceError
from .reporting.tables import (
    ReportingError,
    format_figure4,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
)
from .technology.node import NodeError, n10
from .variability.doe import DOEError, StudyDOE

#: Sub-command names in the order they appear in ``--help`` and in ``all``.
EXPERIMENT_COMMANDS = (
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "table2",
    "table3",
    "fig5",
    "table4",
)

#: Domain errors that exit with code 2 and a one-line message.
CLI_ERRORS = (
    SpecError,
    StudyError,
    CampaignError,
    OperationError,
    MonteCarloStudyError,
    WorstCaseStudyError,
    YieldAnalysisError,
    ComparisonError,
    ReportingError,
    DOEError,
    NodeError,
    ServiceError,
    HighSigmaError,
)

#: Default array sizes when ``--sizes`` is not given (the paper's DOE).
DEFAULT_SIZES = (16, 64, 256, 1024)


def _common_options() -> argparse.ArgumentParser:
    """Options shared by every sub-command (attached per sub-command so they
    can be given after the command name, the way users expect)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--overlay-nm",
        type=float,
        default=8.0,
        help="LE3 3-sigma overlay budget in nm (default: 8, the paper's worst case)",
    )
    common.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="array sizes (word lines) to simulate; default: the paper's 16 64 256 1024",
    )
    common.add_argument(
        "--samples",
        type=int,
        default=500,
        help="Monte-Carlo samples per study point (default: 500)",
    )
    common.add_argument("--seed", type=int, default=2015, help="random seed (default: 2015)")
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the simulated experiments "
            "(fig4/table2/table3/campaign; default: 1)"
        ),
    )
    common.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    return common


def _campaign_axis_options() -> argparse.ArgumentParser:
    """The campaign's scenario-axis options (shared with ``spec dump``)."""
    axes = argparse.ArgumentParser(add_help=False)
    axes.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="persist records to DIR and resume by skipping completed items",
    )
    axes.add_argument(
        "--overlay-sweep",
        type=float,
        nargs="+",
        default=None,
        metavar="NM",
        help="scenario axis: LE overlay budgets in nm (default: the node's budget)",
    )
    axes.add_argument(
        "--stored-values",
        type=int,
        nargs="+",
        choices=(0, 1),
        default=[0],
        metavar="BIT",
        help="scenario axis: stored cell values to simulate (default: 0)",
    )
    axes.add_argument(
        "--strap-intervals",
        type=int,
        nargs="+",
        default=[256],
        metavar="CELLS",
        help="scenario axis: VSS strap intervals in cells (default: 256)",
    )
    axes.add_argument(
        "--methods",
        nargs="+",
        choices=CAMPAIGN_METHODS,
        default=["backward-euler"],
        metavar="METHOD",
        help="scenario axis: transient integration methods (default: backward-euler)",
    )
    axes.add_argument(
        "--operations",
        nargs="+",
        choices=OPERATION_NAMES,
        default=["read"],
        metavar="OP",
        help="scenario axis: SRAM operations to measure (default: read)",
    )
    return axes


def _high_sigma_options() -> argparse.ArgumentParser:
    """The ``yield-hs`` options (shared with ``spec dump --kind yield_hs``)."""
    hs = argparse.ArgumentParser(add_help=False)
    hs.add_argument(
        "--hs-operation",
        choices=OPERATION_NAMES,
        default="read",
        help="operation whose tail is estimated (default: read)",
    )
    hs.add_argument(
        "--hs-model",
        choices=HIGH_SIGMA_MODELS,
        default="analytical",
        help="metric model: analytical tdp formula, calibrated response "
        "surface, or real circuit solves (default: analytical)",
    )
    hs.add_argument(
        "--sigma-levels",
        type=float,
        nargs="+",
        default=None,
        metavar="SIGMA",
        help="tail levels to estimate in sigmas (default: 3 6)",
    )
    hs.add_argument(
        "--threshold-percent",
        type=float,
        default=None,
        metavar="PCT",
        help="explicit failure threshold in percent (default: derive from sigma levels)",
    )
    hs.add_argument(
        "--proposals",
        type=int,
        default=4000,
        metavar="N",
        help="importance-sampling proposal draws per corner and level (default: 4000)",
    )
    hs.add_argument(
        "--pilot-samples",
        type=int,
        default=512,
        metavar="N",
        help="pilot draws used to fit the target model per corner (default: 512)",
    )
    hs.add_argument(
        "--mc-samples",
        type=int,
        default=20000,
        metavar="N",
        help="brute-force Monte-Carlo draws for the low-sigma cross-check (default: 20000)",
    )
    hs.add_argument(
        "--max-calls",
        type=int,
        default=100000,
        metavar="N",
        help="hard budget of real simulator calls per corner (default: 100000)",
    )
    return hs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Impact of Interconnect Multiple-Patterning "
            "Variability on SRAMs' (DATE 2015): regenerate any table or "
            "figure of the paper from the command line, or run any "
            "declarative experiment spec."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    common = _common_options()
    axes = _campaign_axis_options()
    hs = _high_sigma_options()
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "table1": "worst-case bit-line RC variability per patterning option",
        "fig2": "worst-case layout distortion per patterning option",
        "fig3": "the design-of-experiments arrays",
        "fig4": "simulated worst-case read-time penalty versus array size",
        "table2": "analytical formula versus simulation: nominal read time",
        "table3": "analytical formula versus simulation: worst-case penalty",
        "fig5": "Monte-Carlo tdp distributions",
        "table4": "Monte-Carlo tdp sigma per option and overlay budget",
    }
    for name in EXPERIMENT_COMMANDS:
        subparsers.add_parser(name, help=descriptions[name], parents=[common])

    subparsers.add_parser("all", help="run every table and figure", parents=[common])
    subparsers.add_parser(
        "verdict", help="recompute the Section-IV recommendation", parents=[common]
    )

    run_parser = subparsers.add_parser(
        "run",
        help="run a declarative experiment spec (JSON) through repro.api",
    )
    run_parser.add_argument("spec", type=str, help="path to an ExperimentSpec JSON file")
    run_parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="report format (default: text)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="override the worker count the spec's executor backend resolves",
    )
    run_parser.add_argument(
        "--failure-policy",
        choices=FAILURE_POLICIES,
        default=None,
        metavar="POLICY",
        help=(
            "override the spec's per-item failure policy "
            f"({'|'.join(FAILURE_POLICIES)}); skip/retry isolate failing "
            "items into error rows and exit 3 on a partial result"
        ),
    )
    run_parser.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    run_parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "record a span trace (JSONL) of the run to FILE; inspect it "
            "with 'repro report FILE'"
        ),
    )
    run_parser.add_argument(
        "--profile",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "sample the run's call stacks (~101 Hz, pool workers "
            "included) into FILE as folded/collapsed flamegraph stacks; "
            "inspect with 'repro report --flame FILE'"
        ),
    )

    report_parser = subparsers.add_parser(
        "report",
        help="per-phase wall-time report of a traced run (see run/serve --trace)",
    )
    report_parser.add_argument(
        "path",
        type=str,
        help=(
            "a trace JSONL file, or a campaign store / directory "
            "containing trace.jsonl (with --flame: a folded-stacks "
            "file from run/serve --profile, or a directory containing "
            "profile.folded)"
        ),
    )
    report_parser.add_argument(
        "--flame",
        action="store_true",
        help=(
            "render a folded-stacks profile (phase totals, hottest "
            "frames and stacks) instead of a span-trace report"
        ),
    )
    report_parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="how many of the slowest item spans to list (default: 10)",
    )
    report_parser.add_argument(
        "--chrome-out",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "also export the trace as Chrome trace-event JSON for "
            "chrome://tracing or Perfetto"
        ),
    )
    report_parser.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )

    spec_parser = subparsers.add_parser(
        "spec", help="create or validate declarative experiment specs"
    )
    spec_sub = spec_parser.add_subparsers(dest="spec_command", required=True)
    dump_parser = spec_sub.add_parser(
        "dump",
        help="print the spec JSON equivalent to a classic sub-command invocation",
        parents=[common, axes, hs],
    )
    dump_parser.add_argument(
        "--kind",
        choices=EXPERIMENT_KINDS,
        default="campaign",
        help="experiment kind of the emitted spec (default: campaign)",
    )
    dump_parser.add_argument(
        "--mc-sigma",
        action="store_true",
        help="operations kind: include the Monte-Carlo sigma tables",
    )
    dump_parser.add_argument(
        "--budget", type=float, default=10.0, help="yield kind: tdp budget in percent"
    )
    dump_parser.add_argument(
        "--ppm", type=float, default=100.0, help="yield kind: target violation ppm"
    )
    validate_parser = spec_sub.add_parser(
        "validate", help="parse and validate a spec document"
    )
    validate_parser.add_argument("spec", type=str, help="path to a spec JSON file")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the HTTP experiment server (content-addressed result cache)",
    )
    serve_parser.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="TCP port (default: 8765; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (default: no cache)",
    )
    serve_parser.add_argument(
        "--max-entries",
        type=int,
        default=256,
        metavar="N",
        help="LRU bound of the result cache (default: 256)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent experiment jobs (default: 2)",
    )
    serve_parser.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "durable job journal (JSONL WAL); defaults to "
            "<cache-dir>/journal.jsonl when --cache-dir is set"
        ),
    )
    serve_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-job deadline in seconds (default: none)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help=(
            "on Ctrl-C, wait up to S seconds for in-flight jobs before "
            "abandoning them to the journal (default: 10)"
        ),
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    serve_parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="FILE",
        help="record a span trace (JSONL) of the server's lifetime to FILE",
    )
    serve_parser.add_argument(
        "--profile",
        type=str,
        default=None,
        metavar="FILE",
        help=(
            "sample the server's call stacks for its lifetime into FILE "
            "(folded stacks; see 'repro report --flame')"
        ),
    )

    top_parser = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a running experiment server",
    )
    top_parser.add_argument(
        "--url",
        type=str,
        default=None,
        metavar="URL",
        help="server base URL (default: http://127.0.0.1:8765)",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between polls (default: 2)",
    )
    top_parser.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: until Ctrl-C)",
    )
    top_parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame with lifetime totals and exit",
    )

    submit_parser = subparsers.add_parser(
        "submit",
        help="submit a spec document to a running experiment server",
    )
    submit_parser.add_argument("spec", type=str, help="path to an ExperimentSpec JSON file")
    submit_parser.add_argument(
        "--url",
        type=str,
        default=None,
        metavar="URL",
        help="server base URL (default: http://127.0.0.1:8765)",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes and print its result",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="--wait deadline in seconds (default: 300)",
    )
    submit_parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="--wait report format (default: text)",
    )
    submit_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry connection-level failures N times with backoff (default: 2)",
    )
    submit_parser.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="FILE",
        help="write the --wait report to FILE (atomic) instead of stdout",
    )

    write_parser = subparsers.add_parser(
        "write",
        help="operation suite: worst-case write-delay impact per option and size",
        parents=[common],
    )
    write_parser.add_argument(
        "--mc-sigma",
        action="store_true",
        help="also report the Monte-Carlo sigma of the write-delay impact",
    )
    margins_parser = subparsers.add_parser(
        "margins",
        help="operation suite: hold/read static noise margins under patterning",
        parents=[common],
    )
    margins_parser.add_argument(
        "--mc-sigma",
        action="store_true",
        help="also report the Monte-Carlo sigma of the SNM impact",
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="batched multi-scenario simulation campaign (the fig4/table2/table3 engine)",
        parents=[common, axes],
    )
    campaign_parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="report format (default: text)",
    )

    yield_parser = subparsers.add_parser(
        "yield", help="read-time spec-compliance (yield) analysis", parents=[common]
    )
    yield_parser.add_argument(
        "--budget",
        type=float,
        default=10.0,
        help="allowed read-time penalty in percent (default: 10)",
    )
    yield_parser.add_argument(
        "--ppm",
        type=float,
        default=100.0,
        help="target violation rate in parts per million (default: 100)",
    )

    yield_hs_parser = subparsers.add_parser(
        "yield-hs",
        help="high-sigma tail yield via importance sampling and surrogate surfaces",
        parents=[common, hs],
    )
    yield_hs_parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="report format (default: text)",
    )
    return parser


# -- spec construction (the classic sub-commands are shims over this) --------------------


def _spec_from_args(
    kind: str,
    args: argparse.Namespace,
    operations: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """The :class:`ExperimentSpec` equivalent of a classic CLI invocation.

    ``operations`` overrides the operation list (the ``write`` and
    ``margins`` shims fix it; otherwise ``--operations`` applies).
    """
    sizes = tuple(args.sizes) if args.sizes else DEFAULT_SIZES
    workers = getattr(args, "workers", 1) or 1
    if operations is None:
        operations = tuple(getattr(args, "operations", None) or ("read",))
    operations = tuple(operations)
    overlay_sweep = getattr(args, "overlay_sweep", None)
    if kind in ("campaign", "operations"):
        # Scenario axes apply to the simulated kinds; an operations spec
        # crosses them with its operation list so the emitted document is
        # self-consistent (its scenarios measure exactly its operations).
        scenarios = scenario_spec_grid(
            overlay_budgets_nm=(
                [None]
                if overlay_sweep is None
                else [float(value) for value in overlay_sweep]
            ),
            stored_values=tuple(getattr(args, "stored_values", [0])),
            strap_intervals=tuple(getattr(args, "strap_intervals", [256])),
            methods=tuple(getattr(args, "methods", ["backward-euler"])),
            operations=operations,
        )
    else:
        # worst_case / monte_carlo / yield ignore scenarios entirely.
        scenarios = (ScenarioSpec(),)
    return ExperimentSpec(
        kind=kind,
        technology=TechnologySpec(overlay_three_sigma_nm=args.overlay_nm),
        array=ArraySpec(sizes=sizes),
        scenarios=scenarios,
        operation=OperationSpec(
            operations=operations,
            samples=args.samples,
            mc_sigma=bool(getattr(args, "mc_sigma", False)),
            budget_percent=float(getattr(args, "budget", 10.0)),
            target_ppm=float(getattr(args, "ppm", 100.0)),
        ),
        high_sigma=HighSigmaSpec(
            operation=getattr(args, "hs_operation", None) or "read",
            model=getattr(args, "hs_model", None) or "analytical",
            sigma_levels=tuple(
                float(level)
                for level in (getattr(args, "sigma_levels", None) or (3.0, 6.0))
            ),
            threshold_percent=getattr(args, "threshold_percent", None),
            proposals=int(getattr(args, "proposals", None) or 4000),
            pilot_samples=int(getattr(args, "pilot_samples", None) or 512),
            mc_samples=int(getattr(args, "mc_samples", None) or 20000),
            max_calls=int(getattr(args, "max_calls", None) or 100000),
        ),
        execution=ExecutionSpec(
            backend="process" if workers > 1 else "serial",
            workers=workers,
            seed=args.seed,
            store_dir=getattr(args, "store", None),
        ),
    )


def _format_result(result, fmt: str) -> str:
    """Render a ResultSet in one of the CLI's report formats."""
    if fmt == "json":
        return result.to_json()
    if fmt == "csv":
        return result.to_csv()
    return result.to_text()


def _run_spec_command(
    kind: str,
    args: argparse.Namespace,
    fmt: str = "text",
    operations: Optional[Sequence[str]] = None,
) -> str:
    """Build the spec for a shimmed sub-command, run it, format the result."""
    result = run_experiment(_spec_from_args(kind, args, operations=operations))
    return _format_result(result, fmt)


# -- the paper's figure/table renderings (study front door) ------------------------------


def _build_study(args: argparse.Namespace) -> MultiPatterningSRAMStudy:
    sizes = tuple(args.sizes) if args.sizes else DEFAULT_SIZES
    doe = StudyDOE(array_sizes=sizes)
    node = n10(overlay_three_sigma_nm=args.overlay_nm)
    return MultiPatterningSRAMStudy(
        node, doe=doe, monte_carlo_samples=args.samples, seed=args.seed
    )


def _run_experiment(
    study: MultiPatterningSRAMStudy, command: str, workers: int = 1
) -> str:
    if command == "table1":
        return format_table1(study.run_table1())
    if command == "fig2":
        return "\n\n".join(figure2_ascii(record) for record in study.run_figure2())
    if command == "fig3":
        from .layout.array import paper_doe_layouts

        layouts = paper_doe_layouts(node=study.node, sizes=study.doe.array_sizes)
        return figure3_csv([layout.summary() for layout in layouts.values()])
    if command == "fig4":
        return format_figure4(study.run_figure4(workers=workers))
    if command == "table2":
        return format_table2(study.run_table2(workers=workers))
    if command == "table3":
        return format_table3(study.run_table3(workers=workers))
    if command == "fig5":
        return "\n\n".join(figure5_ascii(record) for record in study.run_figure5())
    if command == "table4":
        return format_table4(study.run_table4())
    raise ValueError(f"unknown experiment {command!r}")


def _run_verdict(study: MultiPatterningSRAMStudy, workers: int = 1) -> str:
    figure4 = study.run_figure4(workers=workers)
    table4 = study.run_table4()
    verdict = OptionComparison(figure4, table4).verdict()
    lines = [
        f"Recommended multiple-patterning option: {verdict.recommended_option}",
        f"  worst-case leader     : {verdict.worst_case_leader}",
        f"  statistical leader    : {verdict.statistical_leader}",
    ]
    if verdict.sigma_ratio_le3_over_sadp is not None:
        lines.append(
            f"  sigma(LE3@8nm)/sigma(SADP): {verdict.sigma_ratio_le3_over_sadp:.2f}"
        )
    for note in verdict.notes:
        lines.append(f"  - {note}")
    return "\n".join(lines)


# -- service verbs -----------------------------------------------------------------------


def _serve(args: argparse.Namespace) -> str:
    """Run the HTTP experiment server until interrupted."""
    import os

    from .obs.profile import disable_profiling, enable_profiling
    from .obs.trace import disable_tracing, enable_tracing
    from .service.server import ExperimentServer

    if args.trace:
        enable_tracing(args.trace)
    if args.profile:
        enable_profiling(args.profile)
    try:
        server = ExperimentServer(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            max_entries=args.max_entries,
            workers=args.workers,
            verbose=args.verbose,
            journal_path=args.journal,
            job_timeout_s=args.job_timeout,
        )
    except OSError as exc:
        # Port already bound, unwritable --cache-dir, ...: a one-line
        # exit-2 message, not a traceback.
        raise ServiceError(f"cannot start the experiment server: {exc}") from None
    cache_note = args.cache_dir if args.cache_dir else "disabled"
    journal_note = str(server.journal.path) if server.journal is not None else "disabled"
    print(
        f"repro serve: listening on {server.url} "
        f"(workers={args.workers}, cache={cache_note}, journal={journal_note})",
        file=sys.stderr,
        flush=True,
    )
    if server.recovered:
        print(
            f"repro serve: recovered {server.recovered} journaled job"
            f"{'s' if server.recovered != 1 else ''} from a previous run",
            file=sys.stderr,
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Graceful drain: close the listener first (no new submissions),
        # then give in-flight jobs --drain-timeout seconds to settle.
        server.stop_serving()
        drained = server.drain(args.drain_timeout)
        server.shutdown()
        # Flush the span trace and profile (merging any pool-worker
        # files) before a possible hard exit below.
        disable_profiling()
        disable_tracing()
        if not drained:
            # Worker threads are non-daemon and cannot be interrupted
            # mid-experiment; exit hard instead of hanging until the
            # abandoned computation finishes.  With a journal, the
            # undrained jobs stay journaled and the next start replays
            # them; without one they are lost (as before).
            note = (
                "journaled for recovery on the next start"
                if server.journal is not None
                else "no journal, they are lost"
            )
            print(
                f"repro serve: drain timed out after {args.drain_timeout:g}s; "
                f"abandoning in-flight experiments ({note})",
                file=sys.stderr,
                flush=True,
            )
            sys.stdout.flush()
            os._exit(0)
    return "server stopped"


def _report(args: argparse.Namespace) -> str:
    """Render the per-phase report of a trace file (or store directory)."""
    import json as _json

    from .obs.trace import read_trace, to_chrome_trace
    from .reporting.tables import format_trace_summary

    if args.flame:
        return _flame_report(args)
    path = Path(args.path)
    if path.is_dir():
        candidate = path / "trace.jsonl"
        if not candidate.is_file():
            raise ReportingError(
                f"{path} contains no trace.jsonl; pass the trace file "
                "recorded with run/serve --trace"
            )
        path = candidate
    if not path.is_file():
        raise ReportingError(f"no trace file at {path}")
    records = read_trace(path)
    if not records:
        raise ReportingError(f"{path} contains no span records")
    if args.chrome_out:
        atomic_write_text(
            args.chrome_out, _json.dumps(to_chrome_trace(records)) + "\n"
        )
    return format_trace_summary(records, top_n=args.top)


def _flame_report(args: argparse.Namespace) -> str:
    """Render a folded-stacks profile (``repro report --flame``)."""
    from .obs.profile import read_folded
    from .reporting.tables import format_flame_summary

    path = Path(args.path)
    if path.is_dir():
        candidate = path / "profile.folded"
        if not candidate.is_file():
            raise ReportingError(
                f"{path} contains no profile.folded; pass the folded "
                "stacks recorded with run/serve --profile"
            )
        path = candidate
    if not path.is_file():
        raise ReportingError(f"no profile file at {path}")
    samples = read_folded(path)
    if not samples:
        raise ReportingError(f"{path} contains no profile samples")
    return format_flame_summary(samples, top_n=args.top)


def _top(args: argparse.Namespace) -> str:
    """Run the live dashboard until interrupted (or --count frames)."""
    from .obs.dashboard import DashboardError, run_top
    from .service.client import DEFAULT_URL

    try:
        frames = run_top(
            args.url or DEFAULT_URL,
            interval_s=args.interval,
            count=args.count,
            once=args.once,
        )
    except DashboardError as exc:
        raise ServiceError(
            f"{exc} — is 'repro serve' running?"
        ) from None
    return f"repro top: {frames} frame{'s' if frames != 1 else ''} rendered"


def _submit(args: argparse.Namespace) -> str:
    """Submit a spec to a running server; optionally wait for the result."""
    from .service.client import DEFAULT_URL, ExperimentClient

    spec = load_spec(Path(args.spec))
    client = ExperimentClient(args.url or DEFAULT_URL, max_retries=args.retries)
    ticket = client.submit(spec)
    if not args.wait:
        import json as _json

        return _json.dumps(ticket, indent=2)
    client.wait(ticket["id"], timeout_s=args.timeout)
    return client.result_text(ticket["id"], fmt=args.format)


# -- dispatch ----------------------------------------------------------------------------


def _dispatch(args: argparse.Namespace) -> str:
    """Produce the report text for one parsed invocation."""
    if args.command == "run":
        from .obs.profile import disable_profiling, enable_profiling
        from .obs.trace import disable_tracing, enable_tracing

        if args.trace:
            enable_tracing(args.trace)
        if args.profile:
            enable_profiling(args.profile)
        try:
            result = run_experiment(
                load_spec(Path(args.spec)),
                workers=args.workers,
                failure_policy=args.failure_policy,
            )
        finally:
            if args.profile:
                disable_profiling()
            if args.trace:
                disable_tracing()
        if result.failures:
            # Partial result: isolated per-item failures became error
            # rows.  The report still renders; main() exits 3.
            args._partial = True
        return _format_result(result, args.format)
    if args.command == "report":
        return _report(args)
    if args.command == "top":
        return _top(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "spec":
        if args.spec_command == "dump":
            return _spec_from_args(args.kind, args).to_json().rstrip("\n")
        spec = load_spec(Path(args.spec))
        return f"OK: {spec.describe()}"
    if args.command == "campaign":
        return _run_spec_command("campaign", args, fmt=args.format)
    if args.command == "write":
        return _run_spec_command("operations", args, operations=("write",))
    if args.command == "margins":
        return _run_spec_command(
            "operations", args, operations=("hold_snm", "read_snm")
        )
    if args.command == "yield":
        return _run_spec_command("yield", args)
    if args.command == "yield-hs":
        return _run_spec_command("yield_hs", args, fmt=args.format)
    if args.command == "table1":
        return _run_spec_command("worst_case", args)
    if args.command == "table4":
        return _run_spec_command("monte_carlo", args)

    study = _build_study(args)
    sections: List[str] = []
    if args.command == "all":
        for command in EXPERIMENT_COMMANDS:
            sections.append(_run_experiment(study, command, workers=args.workers))
        sections.append(_run_verdict(study, workers=args.workers))
    elif args.command == "verdict":
        sections.append(_run_verdict(study, workers=args.workers))
    else:
        sections.append(_run_experiment(study, args.command, workers=args.workers))
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 on success; 2 on domain errors (bad specs, missing or
    unreadable spec files, an unreachable experiment server, an
    unwritable ``--output`` path — a one-line message, never a
    traceback); 3 when ``run`` produced a *partial* result (a ``skip``
    or ``retry`` failure policy turned per-item failures into error
    rows — the report is complete and valid, but some items failed).
    ``--output`` files are written atomically, so a crashed or
    interrupted run never leaves a half-written report behind.
    """
    # Freeze the heap at interpreter exit, so the teardown collection
    # skips every object alive then (~0.15 s of each ``repro`` process).
    # Nothing durable waits on that collection: outputs are written
    # atomically or flushed with the standard streams, and Python does
    # not promise ``__del__`` for objects alive at exit.  Re-registering
    # keeps one handler across repeated in-process calls.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args) + "\n"
    except CLI_ERRORS as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

    output = getattr(args, "output", None)
    if output:
        try:
            atomic_write_text(output, report)
        except OSError as exc:
            print(f"repro: error: cannot write {output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return 3 if getattr(args, "_partial", False) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
