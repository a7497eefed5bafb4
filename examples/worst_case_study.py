"""Worst-case variability study — the full Section II reproduction.

Regenerates Table I (worst-case ΔCbl/ΔRbl), Fig. 2 (printed-versus-drawn
layout distortion) and Fig. 4 (worst-case read-time penalty versus array
size, from transistor-level transient simulation) for the paper's complete
design of experiments: 16 / 64 / 256 / 1024 word lines.

Run with::

    python examples/worst_case_study.py
"""

from __future__ import annotations

from repro import n10
from repro.core import WorstCaseStudy
from repro.reporting import figure2_ascii, figure4_csv, format_figure4, format_table1


def main() -> None:
    node = n10(overlay_three_sigma_nm=8.0)
    study = WorstCaseStudy(node)

    print("=== Table I: worst-case variability per patterning option ===")
    rows = study.table1()
    print(format_table1(rows))
    print()
    print("Worst corners found by the exhaustive +/-3-sigma search:")
    for row in rows:
        corner = ", ".join(
            f"{name}={value:+.1f} nm"
            for name, value in sorted(row.corner_parameters.items())
            if value != 0.0
        )
        print(f"  {row.option_name:8s} {corner}")
    print()

    print("=== Fig. 2: worst-case metal1 layout distortion ===")
    for record in study.figure2():
        print(figure2_ascii(record))
        print()

    print("=== Fig. 4: worst-case impact on the read time (full DOE) ===")
    figure4 = study.figure4()
    print(format_figure4(figure4))
    print()
    print("CSV series (for external plotting):")
    print(figure4_csv(figure4))


if __name__ == "__main__":
    main()
