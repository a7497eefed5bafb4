"""Exact solver work of two golden experiments: a gate that no host noise moves.

Solver work is deterministic: the same spec factors, solves, stamps and
ticks exactly the same number of times on every machine.  Each spec runs
through ``repro.api.run`` and every :class:`~repro.circuit.mna.SolverStats`
field of its thread's delta must equal the committed count, so a solver
change that does more (or less) work fails here whatever the wall clock
says.  ``doe4`` is the paper's four-operation DOE (mostly lockstep DC
lanes); ``yield_hs_circuit`` is the high-sigma study on the circuit
model (sparse transient lanes only).  Change a count only together with
the change that moves it, and say why in ``CHANGES.md``.
"""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest

from repro import api
from repro.circuit.mna import SolverStats, solver_stats

_PATH = Path(__file__).resolve().parent / "golden" / "regenerate.py"
_SPEC = importlib.util.spec_from_file_location("golden_regenerate", _PATH)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

#: Golden spec name -> its exact solver-counter delta.
EXPECTED_WORK = {
    "doe4": SolverStats(
        factorizations=71_733,
        refactorizations=742,
        dense_solves=70_736,
        sparse_solves=997,
        stamp_evals=2_716,
        stamp_device_evals=501_976,
        batch_ticks=2_714,
        batch_lane_iterations=82_528,
        batch_lanes=96,
        batch_lane_slots=164_660,
        scalar_fallbacks=0,
    ),
    "yield_hs_circuit": SolverStats(
        factorizations=873,
        refactorizations=671,
        dense_solves=0,
        sparse_solves=873,
        stamp_evals=200,
        stamp_device_evals=15_714,
        batch_ticks=150,
        batch_lane_iterations=1_696,
        batch_lanes=34,
        batch_lane_slots=1_696,
        scalar_fallbacks=0,
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_WORK))
def test_solver_work_matches_the_committed_counts(name):
    spec = copy.deepcopy(golden.record_specs()[name])
    before = solver_stats().snapshot()
    api.run(spec)
    found = solver_stats().delta_since(before).as_dict()
    assert found == EXPECTED_WORK[name].as_dict()
