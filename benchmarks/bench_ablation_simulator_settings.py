"""Ablation — numerical settings of the read-path simulation.

Two knobs of the simulated td that are modelling choices rather than
physics, and therefore need to be shown not to drive the conclusions:

* **Integration method** — backward Euler (default, numerically damped)
  versus trapezoidal (second order).  The measured td must agree to within
  a few percent, otherwise the "simulation" column of Tables II/III would
  be an artefact of the integrator.
* **Bit-line ladder resolution** — 16 versus 64 versus 256 RC sections for
  the 256-cell column.  The distributed line must be converged at the
  default resolution.
* **VSS strap interval** — the return-path modelling choice that carries
  the SADP/EUV long-array trends; the *nominal* td must be only weakly
  sensitive to it (the trends come from the patterning-induced resistance
  change, not from the strap choice itself).
"""

import pytest

from repro.core.operations import OperationSimulators, create_operation
from repro.reporting import format_csv


def test_ablation_simulator_settings(benchmark, node):
    n = 256
    read = create_operation("read")

    def td_ps(**settings) -> float:
        return read.measure_nominal(OperationSimulators(node, **settings), n).td_s * 1e12

    def run():
        return {
            "backward_euler_td_ps": td_ps(),
            "trapezoidal_td_ps": td_ps(transient_method="trapezoidal"),
            "ladder16_td_ps": td_ps(max_segments=16),
            "ladder256_td_ps": td_ps(max_segments=256),
            "strap64_td_ps": td_ps(vss_strap_interval_cells=64),
            "strap1024_td_ps": td_ps(vss_strap_interval_cells=1024),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + format_csv(list(result.keys()), [[f"{v:.3f}" for v in result.values()]]))

    base = result["backward_euler_td_ps"]
    # Integration method: < 5% effect.
    assert result["trapezoidal_td_ps"] == pytest.approx(base, rel=0.05)
    # Ladder resolution: the default (64) sits between 16 and 256 and the
    # refinement from 64 to 256 sections moves td by well under 5%.
    assert result["ladder256_td_ps"] == pytest.approx(base, rel=0.05)
    assert result["ladder16_td_ps"] == pytest.approx(base, rel=0.10)
    # Strap interval: bounded influence on the nominal read time.
    assert result["strap64_td_ps"] < base <= result["strap1024_td_ps"] * 1.001
    assert result["strap1024_td_ps"] < 1.5 * result["strap64_td_ps"]

    benchmark.extra_info.update({k: round(v, 3) for k, v in result.items()})
