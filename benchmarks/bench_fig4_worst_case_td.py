"""Fig. 4 — worst-case wire-variability impact on the read time.

Paper values (simulation, 8 nm 3σ OL): the LE3 worst case costs ~17-21 %
read time across the array sizes, SADP and EUV stay below ~3 %, and the
EUV penalty even turns slightly negative at 1024 word lines (the lower
wire resistance of the wider printed lines outweighs the capacitance
increase on long bit lines).

The bench runs the full transistor-level read simulation at every array
size of the DOE, for the nominal layout and for each option's worst
corner, and checks that shape.
"""

import pytest

from repro.reporting import figure4_csv, format_figure4


def test_fig4_worst_case_td(benchmark, worst_case_study):
    rows = benchmark.pedantic(worst_case_study.figure4, rounds=1, iterations=1)
    print("\n" + format_figure4(rows))
    print("\n" + figure4_csv(rows))

    assert [row.n_wordlines for row in rows] == [16, 64, 256, 1024]

    # Nominal read time grows monotonically (and super-linearly) with size.
    nominal = [row.nominal_td_ps for row in rows]
    assert all(later > earlier for earlier, later in zip(nominal, nominal[1:]))
    assert nominal[-1] > 20.0 * nominal[0]

    for row in rows:
        # LE3 worst case ~ 20%: dominant and an order of magnitude above the others.
        assert 10.0 < row.tdp_percent("LELELE") < 40.0
        assert row.tdp_percent("LELELE") > 2.0 * abs(row.tdp_percent("SADP"))
        assert row.tdp_percent("LELELE") > 2.0 * abs(row.tdp_percent("EUV"))
        # SADP / EUV stay small at every size.
        assert abs(row.tdp_percent("SADP")) < 12.0
        assert abs(row.tdp_percent("EUV")) < 12.0

    # The non-monotonic trends the paper highlights: the LE3 penalty stops
    # growing for the longest array, and the EUV penalty decreases with
    # array size (negative at 1024 in the paper).
    le3 = [row.tdp_percent("LELELE") for row in rows]
    euv = [row.tdp_percent("EUV") for row in rows]
    assert le3[-1] < max(le3)
    assert euv[-1] < euv[0]

    benchmark.extra_info["nominal_td_ps"] = {row.array_label: round(row.nominal_td_ps, 2) for row in rows}
    benchmark.extra_info["tdp_percent"] = {
        row.array_label: {name: round(value, 2) for name, value in row.tdp_percent_by_option.items()}
        for row in rows
    }
    benchmark.extra_info["paper_tdp_percent"] = {
        "10x16": {"LELELE": 17.33, "SADP": 2.07, "EUV": 2.58},
        "10x64": {"LELELE": 20.01, "SADP": 1.49, "EUV": 2.42},
        "10x256": {"LELELE": 20.60, "SADP": 1.65, "EUV": 1.42},
        "10x1024": {"LELELE": 18.29, "SADP": 2.27, "EUV": -1.02},
    }
