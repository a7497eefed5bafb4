"""Paper-style table formatting.

Every table of the evaluation section has a formatter that takes the typed
result rows of :mod:`repro.core.results` and renders a plain-text table
with the same structure as the paper, so a bench or example run can be
compared against the original side by side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.campaign import CampaignResults
from ..core.results import (
    FormulaVsSimulationTdRow,
    FormulaVsSimulationTdpRow,
    OperationImpactRow,
    OperationSigmaRow,
    TdpSigmaRow,
    WorstCaseRCRow,
    WorstCaseTdRow,
    display_value,
    unit_scale,
)


class ReportingError(ValueError):
    """Raised when results cannot be formatted."""


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = "") -> str:
    """Render a simple monospaced table with column alignment."""
    if not headers:
        raise ReportingError("a table needs at least one column")
    widths = [len(header) for header in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ReportingError(
                f"row has {len(row)} cells but the table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(format_row(headers))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in rows)
    return "\n".join(lines)


def format_table1(rows: Sequence[WorstCaseRCRow]) -> str:
    """Table I: worst-case variability per patterning option."""
    body = []
    for row in rows:
        corner = ", ".join(
            f"{name}={value:+.1f}" for name, value in sorted(row.corner_parameters.items())
            if value != 0.0
        )
        body.append(
            [
                row.option_name,
                corner if corner else "(nominal)",
                f"{row.delta_cbl_percent:+.2f}%",
                f"{row.delta_rbl_percent:+.2f}%",
                f"{row.delta_rvss_percent:+.2f}%",
            ]
        )
    return render_table(
        ["Pat. option", "Worst corner (nm)", "Cbl impact", "Rbl impact", "Rvss impact"],
        body,
        title="Table I: worst-case variability for each patterning option",
    )


def format_figure4(rows: Sequence[WorstCaseTdRow]) -> str:
    """Fig. 4 data: nominal td and worst-case tdp per option and array size."""
    if not rows:
        raise ReportingError("no Fig. 4 rows to format")
    options = sorted(rows[0].tdp_percent_by_option)
    headers = ["Array size", "Nominal td (ps)"] + [f"tdp {name} (%)" for name in options]
    body = []
    for row in rows:
        body.append(
            [row.array_label, f"{row.nominal_td_ps:.2f}"]
            + [f"{row.tdp_percent(name):+.2f}" for name in options]
        )
    return render_table(headers, body, title="Fig. 4: worst-case wire variability impact on td")


def format_table2(rows: Sequence[FormulaVsSimulationTdRow]) -> str:
    """Table II: formula versus simulation nominal td values."""
    body = [
        [
            row.array_label,
            f"{row.simulation_td_s:.2E}",
            f"{row.formula_td_s:.2E}",
            f"{row.ratio:.2f}x",
        ]
        for row in rows
    ]
    return render_table(
        ["Array size", "Simulation (s)", "Formula (s)", "Sim/Formula"],
        body,
        title="Table II: formula versus simulation td_nom values",
    )


def format_table3(rows: Sequence[FormulaVsSimulationTdpRow]) -> str:
    """Table III: formula versus simulation tdp values (%) at the worst cases."""
    if not rows:
        raise ReportingError("no Table III rows to format")
    options = sorted(rows[0].tdp_percent_by_option)
    headers = ["Method", "Array size"] + list(options)
    body = []
    for row in rows:
        body.append(
            [row.method, row.array_label]
            + [f"{row.tdp_percent_by_option[name]:+.2f}" for name in options]
        )
    return render_table(
        headers, body, title="Table III: formula versus simulation tdp values (%)"
    )


def format_table4(rows: Sequence[TdpSigmaRow]) -> str:
    """Table IV: tdp standard deviation per option and overlay budget."""
    body = [
        [row.array_label, row.label, f"{row.sigma_percent:.3f}"]
        for row in rows
    ]
    return render_table(
        ["Array size", "Patterning option", "Std. deviation (% points)"],
        body,
        title="Table IV: patterning options & tdp sigma values",
    )


def format_campaign_text(results: CampaignResults) -> str:
    """Campaign records as one monospaced table, in work-list order."""
    body = []
    for record in results:
        penalty = results.penalty_percent_for(record)
        body.append(
            [
                record.scenario_label,
                record.operation,
                f"10x{record.n_wordlines}",
                record.option_name if record.option_name else "(nominal)",
                display_value(record.value, record.unit),
                f"{penalty:+.2f}" if penalty is not None else "-",
                record.stop_reason,
            ]
        )
    return render_table(
        ["Scenario", "Operation", "Array size", "Option", "Value", "Impact (%)", "Stop"],
        body,
        title=f"Simulation campaign: {len(results)} records",
    )


def format_operation_table(
    rows: Sequence[OperationImpactRow], title: Optional[str] = None
) -> str:
    """Operation-suite table: nominal value plus worst-case impact per option."""
    if not rows:
        raise ReportingError("no operation rows to format")
    operation = rows[0].operation
    factor, unit_label = unit_scale(rows[0].unit)
    options = sorted(rows[0].delta_percent_by_option)
    headers = ["Array size", f"Nominal ({unit_label})"] + [
        f"d{operation} {name} (%)" for name in options
    ]
    body = []
    for row in rows:
        if row.operation != operation:
            raise ReportingError("all rows of an operation table must share the operation")
        body.append(
            [row.array_label, f"{row.nominal_value * factor:.2f}"]
            + [f"{row.delta_percent(name):+.2f}" for name in options]
        )
    chosen_title = (
        title
        if title is not None
        else f"Operation suite ({operation}): worst-case patterning impact"
    )
    return render_table(headers, body, title=chosen_title)


def format_operation_sigma(
    rows: Sequence[OperationSigmaRow], title: Optional[str] = None
) -> str:
    """Monte-Carlo σ of one operation's impact per option and OL budget."""
    if not rows:
        raise ReportingError("no operation sigma rows to format")
    operation = rows[0].operation
    body = [
        [row.array_label, row.label, f"{row.sigma_percent:.3f}"]
        for row in rows
    ]
    chosen_title = (
        title
        if title is not None
        else f"Operation suite ({operation}): Monte-Carlo impact sigma"
    )
    return render_table(
        ["Array size", "Patterning option", "Std. deviation (% points)"],
        body,
        title=chosen_title,
    )


def format_campaign_csv(results: CampaignResults) -> str:
    """Campaign records as flat CSV (corner parameters compacted)."""
    headers = [
        "key",
        "kind",
        "scenario",
        "sim_key",
        "n_wordlines",
        "option",
        "overlay_three_sigma_nm",
        "stored_value",
        "vss_strap_interval_cells",
        "method",
        "operation",
        "value",
        "unit",
        "td_s",
        "tdp_percent",
        "stop_reason",
        "corner_parameters",
        "seed",
        "wall_s",
    ]
    rows = []
    for record in results:
        penalty = results.penalty_percent_for(record)
        corner = ";".join(
            f"{name}={value:g}" for name, value in sorted(record.corner_parameters.items())
        )
        rows.append(
            [
                record.key,
                record.kind,
                record.scenario_label,
                record.sim_key,
                record.n_wordlines,
                record.option_name or "",
                "" if record.overlay_three_sigma_nm is None else record.overlay_three_sigma_nm,
                record.stored_value,
                record.vss_strap_interval_cells,
                record.method,
                record.operation,
                repr(record.value),
                record.unit,
                repr(record.td_s),
                "" if penalty is None else repr(penalty),
                record.stop_reason,
                corner,
                record.seed,
                record.wall_s,
            ]
        )
    return format_csv(headers, rows)


def format_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal CSV rendering (no quoting needed for the study's values)."""
    lines = [",".join(str(cell) for cell in headers)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines)


def format_compliance(rows, requirement) -> str:
    """Yield analysis: per-option compliance table plus the OL requirement."""
    if not rows:
        raise ReportingError("no compliance rows to format")
    body = [
        [
            row.label,
            f"{row.violation.probability:.3e}",
            f"{row.violation.parts_per_million:.1f}",
            row.violation.method
            + (" [extrapolated]" if row.violation.beyond_sampled_range else ""),
            f"{row.column_yield:.6f}",
            f"{row.array_yield:.6f}",
        ]
        for row in rows
    ]
    table = format_csv(
        ["option", "violation_probability", "ppm", "method", "column_yield", "array_yield"],
        body,
    )
    if any(row.violation.beyond_sampled_range for row in rows):
        table += (
            "\n[extrapolated]: the Gaussian tail was queried beyond the largest "
            "sampled tdp — treat as indicative only."
        )
    if requirement.achievable:
        closing = (
            f"{requirement.option_name} meets the {requirement.target_ppm:g} ppm "
            f"target at a 3-sigma overlay budget of "
            f"{requirement.required_overlay_nm:g} nm or tighter."
        )
    else:
        closing = (
            f"{requirement.option_name} cannot meet the {requirement.target_ppm:g} "
            "ppm target within the studied overlay budgets."
        )
    return (
        f"Read-time budget: +{rows[0].budget_percent:g}% over nominal\n"
        + table
        + "\n"
        + closing
    )


def format_high_sigma(rows) -> str:
    """High-sigma yield: one line per corner and sigma level.

    ``rows`` are :class:`repro.highsigma.HighSigmaCornerRow` objects.
    Each line shows the importance-sampling tail estimate (fail
    probability, ppm, the equivalent Gaussian sigma), its effective
    sample size and confidence interval, and — at the levels cheap
    enough to brute-force — the Monte-Carlo cross-check verdict.
    """
    if not rows:
        raise ReportingError("no high-sigma rows to format")
    body = []
    for row in rows:
        if row.mc_probability is None:
            check = "-"
        else:
            verdict = "agree" if row.mc_agrees else "DISAGREE"
            check = f"{row.mc_probability:.3e} ({verdict})"
        overlay = row.overlay_three_sigma_nm
        body.append(
            [
                row.array_label,
                row.option_name,
                "-" if overlay is None else f"{overlay:g}",
                f"{row.sigma_level:g}",
                f"{row.threshold:+.3f}",
                f"{row.fail_probability:.3e}",
                f"{row.ppm:.4g}",
                f"{row.sigma_equivalent:.2f}",
                f"{row.ess:.0f}",
                f"{row.ci_low:.3e}",
                f"{row.ci_high:.3e}",
                check,
            ]
        )
    first = rows[0]
    title = (
        f"High-sigma yield ({first.operation}, {first.model} model, "
        f"{first.confidence:.0%} confidence)"
    )
    return render_table(
        [
            "Array",
            "Option",
            "Overlay [nm]",
            "Level [sigma]",
            "Threshold [%]",
            "Fail prob",
            "ppm",
            "Sigma-equiv",
            "ESS",
            "CI low",
            "CI high",
            "MC check",
        ],
        body,
        title=title,
    )


def record_headers(records: Sequence[Dict[str, object]]) -> List[str]:
    """The union of record keys in first-appearance order.

    The one column-ordering rule of the generic record views, shared by
    ``ResultSet.to_csv`` and :func:`format_records` so the CSV and text
    renderings of the same records can never disagree.
    """
    headers: List[str] = []
    for record in records:
        for key in record:
            if key not in headers:
                headers.append(key)
    return headers


def format_records(records: Sequence[Dict[str, object]], title: str = "") -> str:
    """Generic aligned table over flat result records.

    The rendering of last resort for ResultSets without a typed payload
    (cache hits, HTTP responses): the union of record keys in
    first-appearance order becomes the columns, nested values are
    JSON-encoded, and floats keep full ``repr`` precision so the text
    view stays lossless.
    """
    import json as _json

    if not records:
        raise ReportingError("no records to format")
    headers = record_headers(records)
    body = []
    for record in records:
        cells = []
        for key in headers:
            value = record.get(key, "")
            if isinstance(value, (dict, list)):
                value = _json.dumps(value, sort_keys=True)
            cells.append("" if value is None else str(value))
        body.append(cells)
    return render_table(headers, body, title=title)


def format_result_set(result_set) -> str:
    """Unit-aware plain-text rendering of a :class:`repro.api.ResultSet`.

    Dispatches on the result's experiment kind and reuses the established
    per-study formatters, so a spec-driven run prints the same tables as
    the classic front doors.  A result without its typed ``payload`` (a
    cache hit or a deserialised HTTP response) falls back to the generic
    record table of :func:`format_records`.
    """
    kind = result_set.kind
    payload = result_set.payload
    if payload is None:
        # The generic record table already includes any failure rows.
        return format_records(
            result_set.records, title=f"{kind} records (deserialised)"
        )
    body = _format_typed_payload(kind, payload)
    failures = getattr(result_set, "failures", None) or []
    if failures:
        body = body + "\n\n" + format_failures(failures)
    meta = getattr(result_set, "meta", None) or {}
    if meta.get("solver_stats"):
        body = body + "\n\n" + format_solver_summary(meta)
    return body


def format_solver_summary(meta: Dict[str, object]) -> str:
    """Solver-counter summary of a campaign run (``meta["solver_stats"]``).

    Shows where the linear-algebra work went: full LU factorizations vs
    cheap refactorizations, dense vs sparse solves, and the lockstep
    engines' tick/lane counters.  Pool workers return their counters
    with each chunk, so pool runs report the same counts as serial ones.
    """
    stats = dict(meta.get("solver_stats") or {})
    labels = [
        ("factorizations", "LU factorizations"),
        ("refactorizations", "template refactorizations"),
        ("dense_solves", "dense solves"),
        ("sparse_solves", "sparse solves"),
        ("stamp_evals", "stamp evaluations"),
        ("stamp_device_evals", "device stamp evaluations"),
        ("batch_ticks", "batched solver ticks"),
        ("batch_lanes", "batched lanes launched"),
        ("batch_lane_slots", "batched lane slots"),
        ("batch_lane_iterations", "batched lane iterations"),
        ("scalar_fallbacks", "scalar fallbacks"),
    ]
    body = [
        [label, f"{int(stats[key]):,}"] for key, label in labels if key in stats
    ]
    return render_table(["Counter", "Count"], body, title="Solver summary")


def format_trace_summary(records, top_n: int = 10) -> str:
    """Per-phase wall-time report of a span trace (``repro report``).

    ``records`` are the dictionaries of :func:`repro.obs.trace.read_trace`.
    Four sections: per-phase totals (count / wall / share of the trace
    window), the campaign attribution (how much of ``campaign.run`` the
    named phases account for — the obs bench gates this at ≥95%), the
    ``top_n`` slowest item spans, and the solver-counter totals the
    campaign spans carried.
    """
    from ..obs.trace import campaign_attribution

    if not records:
        raise ReportingError("trace contains no span records")

    window_start = min(int(r.get("ts", 0)) for r in records)
    window_end = max(int(r.get("ts", 0)) + int(r.get("dur", 0)) for r in records)
    window_us = max(1, window_end - window_start)

    totals: Dict[str, List[int]] = {}
    for record in records:
        entry = totals.setdefault(str(record.get("name", "?")), [0, 0])
        entry[0] += 1
        entry[1] += int(record.get("dur", 0))
    phase_rows = [
        [
            name,
            f"{count:,}",
            f"{total_us / 1e6:.3f}",
            f"{total_us / count / 1e3:.2f}",
            f"{100.0 * total_us / window_us:.1f}%",
        ]
        for name, (count, total_us) in sorted(
            totals.items(), key=lambda item: item[1][1], reverse=True
        )
    ]
    sections = [
        render_table(
            ["Span", "Count", "Total [s]", "Mean [ms]", "Window share"],
            phase_rows,
            title=f"Trace summary ({len(records)} spans, "
            f"{window_us / 1e6:.3f} s window)",
        )
    ]

    attribution = campaign_attribution(records)
    if attribution["campaign_runs"]:
        sections.append(
            "Campaign attribution: "
            f"{attribution['attributed_wall_s']:.3f} s of "
            f"{attribution['campaign_wall_s']:.3f} s campaign wall time "
            f"({attribution['coverage_percent']:.1f}%) in named phases "
            f"across {attribution['campaign_runs']} run(s)."
        )

    item_spans = [
        record
        for record in records
        if isinstance(record.get("args"), dict) and "item" in record["args"]
    ]
    if item_spans:
        # The same bucket/quantile math the live dashboard applies to
        # repro_item_wall_seconds, so "p99" means one thing everywhere.
        from ..obs.metrics import (
            DEFAULT_LATENCY_BUCKETS_S,
            cumulate,
            histogram_quantile,
        )

        walls_s = [int(r.get("dur", 0)) / 1e6 for r in item_spans]
        counts = cumulate(walls_s, DEFAULT_LATENCY_BUCKETS_S)
        p50 = histogram_quantile(
            0.50, DEFAULT_LATENCY_BUCKETS_S, counts, len(walls_s)
        )
        p99 = histogram_quantile(
            0.99, DEFAULT_LATENCY_BUCKETS_S, counts, len(walls_s)
        )
        sections.append(
            f"Item latency: {len(walls_s)} item spans, "
            f"p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms "
            f"(histogram-bucket estimate)"
        )
    if item_spans and top_n > 0:
        slowest = sorted(
            item_spans, key=lambda r: int(r.get("dur", 0)), reverse=True
        )[:top_n]
        sections.append(
            render_table(
                ["Item", "Span", "Operation", "Wall [ms]"],
                [
                    [
                        str(record["args"].get("item", "?")),
                        str(record.get("name", "?")),
                        str(record["args"].get("operation", "")),
                        f"{int(record.get('dur', 0)) / 1e3:.2f}",
                    ]
                    for record in slowest
                ],
                title=f"Slowest {len(slowest)} item spans",
            )
        )

    solver_totals: Dict[str, int] = {}
    # campaign.run spans carry the run's full solver delta (pool workers
    # return theirs with each chunk and the parent folds them in); fall
    # back to the joint-solve spans' batch deltas for traces that carry
    # no run-level counters.
    for source in ("campaign.run", "campaign.joint_solve"):
        for record in records:
            if record.get("name") != source:
                continue
            args = record.get("args")
            if not isinstance(args, dict):
                continue
            stats = args.get("solver_stats")
            if isinstance(stats, dict):
                for key, value in stats.items():
                    try:
                        solver_totals[key] = solver_totals.get(key, 0) + int(value)
                    except (TypeError, ValueError):
                        continue
        if solver_totals:
            break
    if solver_totals:
        sections.append(format_solver_summary({"solver_stats": solver_totals}))

    convergence = format_convergence_summary(records)
    if convergence:
        sections.append(convergence)

    return "\n\n".join(sections)


#: Solver spans that annotate their convergence outcome (iterations or
#: accepted steps, converged flag, transient rejections).
CONVERGENCE_SPANS = ("solver.dc", "solver.dc_sweep", "solver.transient")


def format_convergence_summary(records) -> str:
    """Solver-convergence section of a trace report.

    Aggregates the iteration/step annotations the solver wrappers put on
    their spans (serial tier only — pool workers trace into their own
    files that ``read_trace`` already merges).  Returns "" when the
    trace carries no solver spans (e.g. a pre-convergence-telemetry
    trace), so callers can append conditionally.
    """
    rows = []
    for name in CONVERGENCE_SPANS:
        iterations: List[int] = []
        nonconverged = 0
        rejected = 0
        for record in records:
            if record.get("name") != name:
                continue
            args = record.get("args")
            if not isinstance(args, dict):
                continue
            count = args.get("iterations", args.get("steps"))
            try:
                iterations.append(int(count))
            except (TypeError, ValueError):
                continue
            if args.get("converged") is False:
                nonconverged += 1
            try:
                rejected += int(args.get("rejected", 0))
            except (TypeError, ValueError):
                pass
        if not iterations:
            continue
        mean = sum(iterations) / len(iterations)
        rows.append(
            [
                name,
                f"{len(iterations):,}",
                f"{mean:.1f}",
                f"{max(iterations):,}",
                f"{nonconverged:,}",
                f"{rejected:,}",
            ]
        )
    if not rows:
        return ""
    return render_table(
        ["Solver span", "Solves", "Mean iters", "Max iters",
         "Non-conv", "Rejected steps"],
        rows,
        title="Solver convergence (from span annotations)",
    )


def format_flame_summary(samples: Dict[str, int], top_n: int = 10) -> str:
    """Report of a folded-stack profile (``repro report --flame``).

    ``samples`` maps folded stacks to sample counts (the format
    :func:`repro.obs.profile.read_folded` returns).  Three sections:
    samples per span phase (directly comparable with the trace report's
    per-phase wall shares), the hottest leaf frames, and the ``top_n``
    hottest whole stacks.
    """
    from ..obs.profile import phase_totals, top_frames, top_stacks

    if not samples:
        raise ReportingError("profile contains no samples")
    total = sum(samples.values())

    phases = phase_totals(samples)
    sections = [
        render_table(
            ["Phase (innermost span)", "Samples", "Share"],
            [
                [phase, f"{count:,}", f"{100.0 * count / total:.1f}%"]
                for phase, count in phases.items()
            ],
            title=f"Profile summary ({total:,} samples, "
            f"{len(samples):,} distinct stacks)",
        )
    ]

    frames = top_frames(samples, top_n)
    if frames:
        sections.append(
            render_table(
                ["Hot frame (leaf)", "Samples", "Share"],
                [
                    [frame, f"{count:,}", f"{100.0 * count / total:.1f}%"]
                    for frame, count in frames
                ],
                title=f"Hottest {len(frames)} frames",
            )
        )

    stacks = top_stacks(samples, top_n)
    lines = [f"Hottest {len(stacks)} stacks:"]
    for stack, count in stacks:
        lines.append(f"  {count:>7,}  {stack}")
    sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _format_typed_payload(kind: str, payload) -> str:
    if kind == "campaign":
        return format_campaign_text(payload)
    if kind == "worst_case":
        return format_table1(payload)
    if kind == "operations":
        sections = [
            format_operation_table(rows) for rows in payload["impact"].values() if rows
        ]
        sections.extend(
            format_operation_sigma(rows) for rows in payload["sigma"].values() if rows
        )
        return "\n\n".join(sections)
    if kind == "monte_carlo":
        sections = []
        for operation, rows in payload.items():
            if operation == "read":
                sections.append(format_table4(rows))
            else:
                sections.append(format_operation_sigma(rows))
        return "\n\n".join(sections)
    if kind == "yield":
        rows, requirement = payload
        return format_compliance(rows, requirement)
    if kind == "yield_hs":
        return format_high_sigma(payload)
    raise ReportingError(f"no text renderer for experiment kind {kind!r}")


def format_failures(failures) -> str:
    """The partial-result failure section: one line per failed item.

    ``failures`` are the failure records of a ResultSet (dicts with
    ``key`` / ``classification`` / ``attempts`` / ``message``) — the
    items a ``skip`` or ``retry`` failure policy isolated instead of
    aborting the whole experiment.
    """
    lines = [f"Failed items ({len(failures)}) — result is PARTIAL:"]
    for failure in failures:
        key = failure.get("key", "?")
        classification = failure.get("classification", "unexpected")
        attempts = failure.get("attempts", 1)
        message = str(failure.get("message", "")).splitlines()[0] if failure.get("message") else ""
        attempt_note = f"{attempts} attempt{'s' if attempts != 1 else ''}"
        line = f"  {key}: {classification} after {attempt_note}"
        if message:
            line += f" — {message}"
        lines.append(line)
    return "\n".join(lines)
