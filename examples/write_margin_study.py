"""Write-path and noise-margin study — the SRAM operation suite.

The paper quantifies how multi-patterning interconnect variability
penalises the *read* time; the same distorted extraction also shifts the
other SRAM figures of merit.  This example drives the operation suite on
top of the shared layout → patterning → extraction → circuit stack:

* worst-case **write delay** impact per patterning option (transient
  simulation, word-line assert → internal q/qb flip);
* the DC **write margin** (bit-line trip voltage from a continuation
  sweep) and how bit-line resistance distortion eats into it;
* **hold and read static noise margins** from DC butterfly curves
  (Seevinck largest-square method) and their degradation as the rail
  distortion grows;
* the **Monte-Carlo sigma** of the write-delay impact through the
  calibrated response surface (the operation suite's analogue of the
  paper's analytical formula).

Run with::

    python examples/write_margin_study.py
"""

from __future__ import annotations

from repro import n10
from repro.core import (
    MonteCarloTdpStudy,
    OperationSimulators,
    WorstCaseStudy,
    create_operation,
)
from repro.reporting import format_operation_sigma, format_operation_table
from repro.variability.doe import StudyDOE

#: Keep the example quick: two sizes, a few hundred MC samples.
SIZES = (16, 64)


def main() -> None:
    node = n10(overlay_three_sigma_nm=8.0)
    doe = StudyDOE(array_sizes=SIZES)
    worst_case = WorstCaseStudy(node, doe=doe)
    sims = OperationSimulators(node, n_bitline_pairs=doe.n_bitline_pairs)

    print("=== Worst-case write-delay impact per patterning option ===")
    print(format_operation_table(
        worst_case.operation_rows("write"),
        title="Operation suite (write): worst-case write-delay impact",
    ))
    print()

    print("=== DC write margin versus bit-line distortion ===")
    nominal = sims.write.measure_nominal_margin(64)
    print(f"nominal write margin (10x64): {nominal.margin_v * 1e3:.1f} mV "
          f"of bit-line swing slack")
    for rvar in (2.0, 3.0, 5.0):
        column = sims.write.column_parasitics(64)
        from repro.sram import ColumnParasitics

        distorted = ColumnParasitics(
            bitline=column.bitline.scaled(rvar, 1.0),
            bitline_bar=column.bitline_bar.scaled(rvar, 1.0),
            vss_rail_resistance_ohm=column.vss_rail_resistance_ohm,
            vdd_rail_resistance_ohm=column.vdd_rail_resistance_ohm,
        )
        margin = sims.write.measure_margin(64, distorted, label=f"rvar x{rvar:g}")
        status = "" if margin.flipped else "  (write fails!)"
        print(f"  bit-line R x{rvar:g}: {margin.margin_v * 1e3:6.1f} mV{status}")
    print()

    print("=== Hold / read static noise margins (butterfly curves) ===")
    for name, title in (
        ("hold_snm", "Operation suite (hold_snm): worst-case hold-SNM impact"),
        ("read_snm", "Operation suite (read_snm): worst-case read-SNM impact"),
    ):
        print(format_operation_table(
            worst_case.operation_rows(name), title=title
        ))
        print()

    print("Hold-SNM degradation as the supply-rail distortion grows:")
    hold_snm = create_operation("hold_snm")
    for scale in (1.0, 4.0, 8.0, 16.0):
        snm_v = hold_snm.value_with_variation(sims, 64, 1.0, 1.0, rail_rvar=scale)
        print(f"  rail R x{scale:4g}: {snm_v * 1e3:6.1f} mV")
    print()

    print("=== Monte-Carlo sigma of the write-delay impact ===")
    mc = MonteCarloTdpStudy(node, doe=doe, n_samples=300)
    rows = mc.operation_sigma_rows("write", n_wordlines=64, simulators=sims)
    print(format_operation_sigma(
        rows, title="Operation suite (write): Monte-Carlo write-delay sigma"
    ))


if __name__ == "__main__":
    main()
