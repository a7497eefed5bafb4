"""``repro`` starts without the heavy optional modules and exits fast.

One fresh interpreter blocks ``scipy.stats`` and ``networkx`` (a ``None``
entry in ``sys.modules`` makes any import of them raise ``ImportError``),
runs the smoke spec through the CLI, recomputes the smoke golden record
document and reports which modules it loaded.  A new eager import of
either module, or of the scipy subpackages that ``scipy.stats`` drags in,
fails here before it shows up as start-up time.

Another runs the smoke spec through ``repro.cli.main`` and checks that the
heap is frozen when the interpreter exits, which spares the teardown
collection, while the printed document still equals the smoke golden.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_GOLDEN = importlib.util.spec_from_file_location(
    "golden_regenerate", ROOT / "tests" / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(_GOLDEN)
_GOLDEN.loader.exec_module(golden)

BLOCKED = ("scipy.stats", "networkx")
NOT_LOADED = (
    "networkx",
    "scipy.stats",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.interpolate",
    "scipy.spatial",
    "scipy.ndimage",
    "scipy.fft",
)

CHILD = """
import contextlib, importlib.util, io, json, sys
root, blocked, not_loaded = sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(",")
for name in blocked:
    sys.modules[name] = None
sys.path.insert(0, root + "/src")

from repro import cli

stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    code = cli.main(["run", root + "/examples/specs/smoke.json", "--format", "json"])

spec = importlib.util.spec_from_file_location(
    "golden_regenerate", root + "/tests/golden/regenerate.py"
)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
stored = (golden.RECORDS_DIR / "smoke.json").read_text(encoding="utf-8")
document = golden.records_document(golden.SPEC_DIR / "smoke.json")

loaded = sorted(
    name
    for name, module in sys.modules.items()
    if module is not None
    and any(name == prefix or name.startswith(prefix + ".") for prefix in not_loaded)
)
print(json.dumps({
    "exit_code": code,
    "n_records": json.loads(stdout.getvalue())["n_records"],
    "golden_equal": golden.render(document) == stored,
    "loaded": loaded,
}))
"""


def test_smoke_run_without_scipy_stats_or_networkx():
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT), ",".join(BLOCKED), ",".join(NOT_LOADED)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["exit_code"] == 0
    assert report["n_records"] > 0
    assert report["golden_equal"]
    assert report["loaded"] == []


EXIT_CHILD = """
import atexit, gc, json, sys
root = sys.argv[1]
# atexit runs handlers last in, first out: this probe, registered before
# cli.main registers gc.freeze, runs after it.
atexit.register(
    lambda: sys.stderr.write(json.dumps({"freeze_count": gc.get_freeze_count()}) + "\\n")
)
sys.path.insert(0, root + "/src")

from repro import cli

sys.exit(cli.main(["run", root + "/examples/specs/smoke.json", "--format", "json"]))
"""


def test_cli_freezes_the_heap_at_exit():
    completed = subprocess.run(
        [sys.executable, "-c", EXIT_CHILD, str(ROOT)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    probe = json.loads(completed.stderr.splitlines()[-1])
    assert probe["freeze_count"] > 0
    document = golden.without_provenance(json.loads(completed.stdout))
    stored = (golden.RECORDS_DIR / "smoke.json").read_text(encoding="utf-8")
    assert golden.render(document) == stored
