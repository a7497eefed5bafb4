"""Traced ``repro`` CLI child: ``python traced_cli.py --spans OUT -- <repro args>``.

Times ``import repro.cli`` as the ``cli.import`` span, wraps the layer
entry points of :mod:`layers`, runs ``repro.cli.main(<repro args>)`` and,
once it returns, writes the spans, the number of loaded modules and the
``time.perf_counter()`` readings at interpreter start-up and at return
to OUT as JSON.  Exits with the CLI's own exit code.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: traced_cli.py --spans OUT -- <repro args>", file=sys.stderr)
        return 2
    out, cli_args = Path(argv[1]), argv[3:]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import layers

    recorder = layers.Recorder()
    index = recorder.begin("cli.import")
    import repro.cli

    recorder.end(index)
    recorder.install()
    try:
        code = repro.cli.main(cli_args)
    finally:
        recorder.uninstall()
        sys.stdout.flush()
    payload = {
        "spans": recorder.spans,
        "modules": len(sys.modules),
        "started": STARTED,
        "returned": time.perf_counter(),
    }
    out.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
