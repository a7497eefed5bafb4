"""Frozen golden corpus: experiment records and per-lane solver outcomes.

Regenerate (only with a CHANGES.md note saying why the bits moved)::

    PYTHONPATH=src python tests/golden/regenerate.py

Two kinds of document live next to this script:

* ``records/<name>.json`` — the ResultSet JSON of ``repro.api.run`` on
  every ``examples/specs/*.json``, on the four-operation DOE (``doe4``)
  and on the smoke spec run as the ``monte_carlo`` kind (``mc_read``:
  Table IV's σ of the read path) and as the ``yield`` kind (``yield``:
  the compliance rows and the overlay requirement), and on the
  high-sigma spec with the circuit model (``yield_hs_circuit``: every
  importance-sampled draw a real read transient), without wall-clock
  timings and batch provenance (``solver_stats``, and each record's
  ``solver`` and ``batch_size``);
* ``solver.json`` — per-lane outcomes of the DC and transient solvers:
  iteration counts, SHA-256 digests of the exact float64 bytes of every
  voltage and time array, stop reasons and exact ``ConvergenceError``
  texts, plus per-case totals of the rescue-ladder stages entered and
  of the rejected transient steps.

``tests/test_golden.py`` recomputes every document with the same
functions and compares it byte for byte (rtol 0).  Each solver case is
solved twice, by the one-lane drivers and by the lockstep engines of
``repro.circuit.batch``; both must reproduce the same document.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent
ROOT = GOLDEN_DIR.parent.parent
SPEC_DIR = ROOT / "examples" / "specs"
RECORDS_DIR = GOLDEN_DIR / "records"
SOLVER_PATH = GOLDEN_DIR / "solver.json"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import api  # noqa: E402
from repro.circuit.batch import (  # noqa: E402
    OperatingPointLaneSpec,
    SweepLaneSpec,
    TransientLaneSpec,
    batch_dc_operating_points,
    batch_dc_sweep,
    batch_run_transients,
    run_lane_scalar,
)
from repro.circuit.dc import (  # noqa: E402
    DCResult,
    DCSweepResult,
    NewtonOptions,
    solver_rescue,
)
from repro.circuit.elements import Resistor, VoltageSource  # noqa: E402
from repro.circuit.mosfet import MOSFET  # noqa: E402
from repro.circuit.netlist import Circuit  # noqa: E402
from repro.circuit.transient import TransientSolver  # noqa: E402
from repro.core.operations import OperationSimulators, create_operation  # noqa: E402
from repro.obs.metrics import registry  # noqa: E402
from repro.technology import n10  # noqa: E402
from repro.technology.transistors import (  # noqa: E402
    default_n10_nmos,
    default_n10_pmos,
)

# -- records ----------------------------------------------------------------------------

#: Top-level and per-record keys that are timing or batch provenance.
TOP_LEVEL_DROPPED = ("solver_stats",)
RECORD_DROPPED = ("wall_s", "solver", "batch_size")

#: The paper's DOE over all four operations, as the repository benchmark
#: runs it at seed 1 (``execution.seed`` = 1 * 1_000_003).
DOE4_SEED = 1_000_003


def doe4_spec() -> Dict[str, Any]:
    spec = json.loads((SPEC_DIR / "smoke.json").read_text(encoding="utf-8"))
    spec["kind"] = "operations"
    spec["operation"]["operations"] = ["read", "write", "hold_snm", "read_snm"]
    spec["array"]["sizes"] = [16, 64, 256, 1024]
    spec["execution"].update(backend="serial", workers=1, seed=DOE4_SEED)
    return spec


def smoke_as(kind: str) -> Dict[str, Any]:
    """The smoke spec run as another experiment kind."""
    spec = json.loads((SPEC_DIR / "smoke.json").read_text(encoding="utf-8"))
    spec["kind"] = kind
    return spec


def yield_hs_circuit_spec() -> Dict[str, Any]:
    """The high-sigma spec on the circuit model: 2 rows, 34 transient lanes."""
    spec = json.loads((SPEC_DIR / "yield_hs.json").read_text(encoding="utf-8"))
    spec["high_sigma"]["model"] = "circuit"
    spec["array"]["options"] = ["LELELE"]
    spec["array"]["overlay_budgets_nm"] = [3.0]
    return spec


def record_specs() -> Dict[str, Any]:
    """Golden name -> spec (a path or a mapping), in a stable order."""
    specs: Dict[str, Any] = {
        path.stem: path for path in sorted(SPEC_DIR.glob("*.json"))
    }
    specs["doe4"] = doe4_spec()
    specs["mc_read"] = smoke_as("monte_carlo")
    specs["yield"] = smoke_as("yield")
    specs["yield_hs_circuit"] = yield_hs_circuit_spec()
    return specs


def without_provenance(document: Dict[str, Any]) -> Dict[str, Any]:
    """A ResultSet JSON document without its timings and batch provenance."""
    for key in TOP_LEVEL_DROPPED:
        document.pop(key, None)
    for record in document["records"]:
        for key in RECORD_DROPPED:
            record.pop(key, None)
    return document


def records_document(spec: Any) -> Dict[str, Any]:
    return without_provenance(json.loads(api.run(spec).to_json()))


# -- solver lanes -----------------------------------------------------------------------

#: A starved Newton budget: every operating-point rung (gmin stepping,
#: source stepping, pseudo-transient) and the sweep-point rescue are
#: entered, some lanes recover and some exhaust the ladder.
STARVED = NewtonOptions(max_iterations=2, abs_tolerance_a=1e-8)

#: The retry escalation the campaign applies on a second retry.
RESCUE_LEVEL, RESCUE_SEED = 2, 7


def _sims(method: str = "backward-euler") -> OperationSimulators:
    return OperationSimulators(
        n10(), n_bitline_pairs=4, max_segments=64, transient_method=method
    )


def butterfly_lanes() -> List[SweepLaneSpec]:
    """Both VTC sweeps of hold and read butterflies at 16 and 64 cells."""
    margins = _sims().margins
    lanes: List[SweepLaneSpec] = []
    for n_cells, mode in ((16, "hold"), (16, "read"), (64, "hold"), (64, "read")):
        lanes.extend(margins._prepare_butterfly(n_cells, mode=mode).lanes)
    return lanes


def starved_sweep_lanes() -> List[SweepLaneSpec]:
    return [replace(lane, options=STARVED) for lane in butterfly_lanes()[:4]]


def _butterfly_points(
    settings: Sequence[Tuple[NewtonOptions, float]],
) -> List[OperatingPointLaneSpec]:
    """First and mid-sweep points of the 16-cell butterflies.

    Point ``k`` takes the Newton options and gmin ``settings[k]``, cycling.
    """
    lanes = []
    for sweep in butterfly_lanes()[:4]:
        for value in (sweep.values[0], sweep.values[len(sweep.values) // 2]):
            options, gmin_s = settings[len(lanes) % len(settings)]
            lanes.append(
                OperatingPointLaneSpec(
                    sweep.circuit,
                    initial_voltages=sweep.initial_voltages,
                    options=options,
                    gmin_s=gmin_s,
                    source_overrides={sweep.source_name: float(value)},
                )
            )
    return lanes


def starved_operating_point_lanes() -> List[OperatingPointLaneSpec]:
    return _butterfly_points([(STARVED, butterfly_lanes()[0].gmin_s)])


#: Per-lane Newton options and gmin for one structurally identical DC
#: group: the lanes finish on different ticks, and the starved ones enter
#: the rescue ladder (sweep-point rescue; gmin, source and pseudo-transient
#: stepping) or exhaust it, so a lockstep engine that mixed up one lane's
#: options or gmin with another's would move these documents.
MIXED: Tuple[Tuple[NewtonOptions, float], ...] = (
    (NewtonOptions(max_iterations=200, abs_tolerance_a=1e-8), 1e-12),
    (NewtonOptions(max_iterations=2, abs_tolerance_a=1e-8), 1e-12),
    (
        NewtonOptions(
            max_iterations=60, abs_tolerance_a=1e-10, damping=0.7, max_voltage_step_v=0.1
        ),
        1e-10,
    ),
    (
        NewtonOptions(
            max_iterations=3, abs_tolerance_a=3e-9, damping=0.9, max_voltage_step_v=0.5
        ),
        1e-11,
    ),
    (
        NewtonOptions(
            max_iterations=8, abs_tolerance_a=1e-9, damping=1.0, max_voltage_step_v=0.05
        ),
        1e-9,
    ),
    (
        NewtonOptions(
            max_iterations=100, abs_tolerance_a=1e-7, damping=0.5, max_voltage_step_v=0.2
        ),
        1e-12,
    ),
)


def mixed_sweep_lanes() -> List[SweepLaneSpec]:
    """The 16-cell butterfly sweeps, cycled over the :data:`MIXED` settings."""
    base = butterfly_lanes()[:4]
    return [
        replace(base[k % len(base)], options=options, gmin_s=gmin_s)
        for k, (options, gmin_s) in enumerate(MIXED)
    ]


def mixed_operating_point_lanes() -> List[OperatingPointLaneSpec]:
    return _butterfly_points(MIXED)


def inverter_chain(stages: int = 32, vin_v: float = 0.2) -> Circuit:
    """CMOS inverters coupled by resistors: 68 MNA unknowns at 32 stages."""
    circuit = Circuit("inverter-chain")
    circuit.add(VoltageSource.dc("vdd", "vdd", "0", 0.7))
    circuit.add(VoltageSource.dc("vin", "in0", "0", vin_v))
    for k in range(stages):
        circuit.add(MOSFET(f"mp{k}", f"out{k}", f"in{k}", "vdd", default_n10_pmos()))
        circuit.add(MOSFET(f"mn{k}", f"out{k}", f"in{k}", "0", default_n10_nmos()))
        circuit.add(Resistor(f"r{k}", f"out{k}", f"in{k + 1}", 1e3))
    circuit.add(Resistor("rload", f"in{stages}", "0", 1e6))
    return circuit


def large_dc_lanes() -> List[OperatingPointLaneSpec]:
    """One sparse-path DC solve at the default budget and one starved."""
    stages = 32
    guess = {"vdd": 0.7}
    for k in range(stages):
        level = 0.7 if k % 2 == 0 else 0.0
        guess[f"out{k}"] = level
        guess[f"in{k + 1}"] = level
    circuit = inverter_chain(stages)
    return [
        OperatingPointLaneSpec(circuit, initial_voltages=guess),
        OperatingPointLaneSpec(
            circuit, initial_voltages=guess, options=NewtonOptions(max_iterations=2)
        ),
    ]


def nmos_circuit(vdd: float = 0.7) -> Circuit:
    """A resistor-loaded NMOS (the failure-classification test circuit)."""
    circuit = Circuit("nmos-load")
    circuit.add(VoltageSource.dc("vdd", "vdd", "0", vdd))
    circuit.add(Resistor("rload", "vdd", "drain", 10e3))
    circuit.add(VoltageSource.dc("vg", "gate", "0", vdd))
    circuit.add(MOSFET("m1", "drain", "gate", "0", default_n10_nmos()))
    return circuit


def exhaustion_lanes() -> List[OperatingPointLaneSpec]:
    return [
        OperatingPointLaneSpec(
            nmos_circuit(), options=NewtonOptions(max_iterations=1)
        )
    ]


def transient_lanes() -> List[TransientLaneSpec]:
    """Read and write columns (both stored/written values), BE and TRAP."""
    lanes: List[TransientLaneSpec] = []
    for method in ("backward-euler", "trapezoidal"):
        sims = _sims(method)
        for name in ("read", "write"):
            for value in (0, 1):
                lanes.extend(
                    create_operation(name).prepare_nominal(sims, 16, value).lanes
                )
    return lanes


def _restarted(lane: TransientLaneSpec, **changes: Any) -> TransientLaneSpec:
    """The lane on a fresh solver whose options carry ``changes``."""
    solver = lane.solver
    options = replace(solver.options, **changes)
    return replace(lane, solver=TransientSolver(solver.assembler, options=options))


def starved_transient_lanes() -> List[TransientLaneSpec]:
    """Rejected steps that recover, a dt underflow and an exhausted budget."""
    lanes = transient_lanes()
    starved = [
        _restarted(lane, newton=NewtonOptions(max_iterations=2)) for lane in lanes
    ]
    first = lanes[0].solver.options
    underflow = _restarted(
        lanes[0],
        newton=NewtonOptions(max_iterations=1, abs_tolerance_a=1e-13),
        dt_min_s=first.dt_initial_s / 16.0,
    )
    return starved + [underflow, _restarted(lanes[0], max_steps=5)]


def rescued_lanes() -> List[Any]:
    return (
        butterfly_lanes()[:4]
        + starved_sweep_lanes()
        + starved_operating_point_lanes()[:4]
        + exhaustion_lanes()
    )


#: Case name -> (lane factory, escalation level).  Factories build fresh
#: lanes on every call: transient solvers carry factorisation caches.
CASES: Dict[str, tuple] = {
    "butterfly": (butterfly_lanes, 0),
    "butterfly_starved": (starved_sweep_lanes, 0),
    "operating_points_starved": (starved_operating_point_lanes, 0),
    "dc_above_dense_threshold": (large_dc_lanes, 0),
    "ladder_exhaustion": (exhaustion_lanes, 0),
    "transients": (transient_lanes, 0),
    "transients_starved": (starved_transient_lanes, 0),
    "rescue_level_2_seed_7": (rescued_lanes, RESCUE_LEVEL),
    "butterfly_mixed_options": (mixed_sweep_lanes, 0),
    "operating_points_mixed_options": (mixed_operating_point_lanes, 0),
}


def solve_one_lane(lanes: Sequence[Any]) -> List[Any]:
    outcomes: List[Any] = []
    for lane in lanes:
        try:
            outcomes.append(run_lane_scalar(lane))
        except Exception as exc:  # noqa: BLE001 - the outcome is recorded
            outcomes.append(exc)
    return outcomes


def solve_lockstep(lanes: Sequence[Any]) -> List[Any]:
    """Each lane kind through its batched entry point, in lane order."""
    outcomes: List[Any] = [None] * len(lanes)
    for kind, entry in (
        (SweepLaneSpec, batch_dc_sweep),
        (OperatingPointLaneSpec, batch_dc_operating_points),
        (TransientLaneSpec, batch_run_transients),
    ):
        picked = [i for i, lane in enumerate(lanes) if isinstance(lane, kind)]
        if picked:
            for i, outcome in zip(picked, entry([lanes[i] for i in picked])):
                outcomes[i] = outcome
    return outcomes


DRIVERS: Dict[str, Callable[[Sequence[Any]], List[Any]]] = {
    "one_lane": solve_one_lane,
    "lockstep": solve_lockstep,
}


def _sha(values: Any) -> str:
    array = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(array.tobytes()).hexdigest()


def lane_summary(outcome: Any) -> Dict[str, Any]:
    if isinstance(outcome, BaseException):
        return {"error": type(outcome).__name__, "message": str(outcome)}
    if isinstance(outcome, DCSweepResult):
        return {
            "result": "dc_sweep",
            "source": outcome.source_name,
            "iterations": int(outcome.iterations_total),
            "values": _sha(outcome.values),
            "voltages": {n: _sha(v) for n, v in sorted(outcome.voltages.items())},
        }
    if isinstance(outcome, DCResult):
        return {
            "result": "dc_operating_point",
            "iterations": int(outcome.iterations),
            "converged": bool(outcome.converged),
            "max_residual_a": float(outcome.max_residual_a).hex(),
            "voltages": {
                n: float(v).hex() for n, v in sorted(outcome.voltages.items())
            },
        }
    return {
        "result": "transient",
        "steps": len(outcome.times_s) - 1,
        "stop_reason": outcome.stop_reason,
        "converged": bool(outcome.converged),
        "t_end": float(outcome.times_s[-1]).hex(),
        "times": _sha(outcome.times_s),
        "voltages": {n: _sha(v) for n, v in sorted(outcome.voltages.items())},
    }


def _counter_totals(delta: Dict[str, Any], name: str, label: str) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for (series, labels), value in delta.get("counters", {}).items():
        if series == name:
            key = dict(labels)[label]
            totals[key] = totals.get(key, 0) + int(value)
    return dict(sorted(totals.items()))


def solve_case(name: str, driver: str) -> Dict[str, Any]:
    """One case's document: lane summaries plus the counters it moved.

    ``rescue_stages`` totals ``repro_solver_rescue_total`` per stage over
    every kind, so the one-lane (``dc``/``dc_sweep``) and lockstep
    (``batch_dc``/``batch_dc_sweep``) labels compare directly.
    ``step_rejections`` is keyed by the ``kind`` label as reported.
    """
    factory, level = CASES[name]
    lanes = factory()
    before = registry().snapshot()
    context = solver_rescue(level, seed=RESCUE_SEED) if level else nullcontext()
    with context:
        outcomes = DRIVERS[driver](lanes)
    delta = registry().delta_since(before)
    return {
        "lanes": [lane_summary(outcome) for outcome in outcomes],
        "rescue_stages": _counter_totals(delta, "repro_solver_rescue_total", "stage"),
        "step_rejections": _counter_totals(
            delta, "repro_solver_step_rejections_total", "kind"
        ),
    }


def solver_document() -> Dict[str, Any]:
    """The one-lane driver's document for every case."""
    return {name: solve_case(name, "one_lane") for name in CASES}


# -- files ------------------------------------------------------------------------------


def render(document: Any) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main() -> int:
    RECORDS_DIR.mkdir(parents=True, exist_ok=True)
    for name, spec in record_specs().items():
        path = RECORDS_DIR / f"{name}.json"
        path.write_text(render(records_document(copy.deepcopy(spec))), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    SOLVER_PATH.write_text(render(solver_document()), encoding="utf-8")
    print(f"wrote {SOLVER_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
