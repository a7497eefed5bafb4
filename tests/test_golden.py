"""The frozen golden corpus under ``tests/golden/`` still reproduces, bit for bit.

Every document is recomputed with the functions of
``tests/golden/regenerate.py`` and compared with the committed file as
text, so any float that moves by one ulp fails (rtol 0).  Solver cases
are checked through both drivers: the one-lane entry points
(``dc_sweep``, ``dc_operating_point``, ``TransientSolver.run``) and the
lockstep engines of ``repro.circuit.batch``.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent / "golden" / "regenerate.py"
_SPEC = importlib.util.spec_from_file_location("golden_regenerate", _PATH)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

RECORD_SPECS = golden.record_specs()


@pytest.fixture(scope="module")
def solver_golden():
    return json.loads(golden.SOLVER_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RECORD_SPECS))
def test_records_match_the_golden_corpus(name):
    stored = (golden.RECORDS_DIR / f"{name}.json").read_text(encoding="utf-8")
    document = golden.records_document(copy.deepcopy(RECORD_SPECS[name]))
    assert golden.render(document) == stored


@pytest.mark.parametrize("driver", sorted(golden.DRIVERS))
@pytest.mark.parametrize("case", list(golden.CASES))
def test_solver_lanes_match_the_golden_corpus(solver_golden, case, driver):
    expected = solver_golden[case]
    found = golden.solve_case(case, driver)
    assert len(found["lanes"]) == len(expected["lanes"])
    for index, (lane, want) in enumerate(zip(found["lanes"], expected["lanes"])):
        assert lane == want, f"{case} lane {index} via {driver}"
    assert found["rescue_stages"] == expected["rescue_stages"]
    if driver == "one_lane":
        assert found["step_rejections"] == expected["step_rejections"]


def test_the_corpus_enters_every_rescue_rung(solver_golden):
    stages = set()
    for case in solver_golden.values():
        stages.update(case["rescue_stages"])
    assert {"gmin_step", "source_step", "pseudo_transient", "sweep_point"} <= stages
    starved = solver_golden["butterfly_starved"]["lanes"]
    assert any("error" in lane for lane in starved)
    assert any("error" not in lane for lane in starved)
    assert solver_golden["transients_starved"]["step_rejections"]
