"""Host speed probe: fixed chunks of work timed every 25 ms.

The benchmark runs on a small shared host whose speed drifts by up to
2x over seconds to minutes.  The probe is a separate process on the same
CPU as the workload.  Every :data:`PERIOD_S` it times one chunk of a
kind from :data:`KINDS`, in rotation, and keeps the readings in memory.  The
parent attributes the readings to each operation by time window.  The
window's *slowdown* is the geometric mean, over the chunk kinds, of the
median reading over that kind's reference time, and an operation's
*host-normalised* wall is its wall divided by the slowdown: the wall it
would have taken on a host where every chunk takes its reference time.

Why four kinds: no one kind tracked the workloads' walls across host
regimes.  Over five or six runs of each workload at different seeds,
the spread (IQR over median) of the run medians was, for doe4 /
yield_hs / service walls: raw 0.16 / 0.27 / 0.08, normalised by dict
lookups alone 0.10 / 0.13 / 0.09, by the arithmetic loop alone
0.04 / 0.09 / 0.06 and by the geometric mean of all four
0.02 / 0.04 / 0.06.  Six more doe4 and yield_hs runs across a 1.6x
regime change: raw 0.32 / 0.08, four kinds 0.07 / 0.05.  The tracking
is not exact: in the slowest regime seen (slowdown ~1.5) normalised
walls still read about 10% high.  The probe takes about 3% of the CPU.

Child side: ``python probe.py`` prints ``ready`` once it samples, then
samples until a line (or EOF) arrives on stdin, and prints its readings
as one JSON list of ``[start, seconds, kind]``.  ``time.perf_counter()``
is CLOCK_MONOTONIC on Linux, so the readings share the parent's clock.
"""

from __future__ import annotations

import json
import math
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Seconds between two chunks.
PERIOD_S = 0.025
#: (kind, reference seconds) of every chunk, in rotation order; the
#: references are chunk times seen on a 2-vCPU Xeon host at its fastest.
KINDS = (("lookups", 1.25e-3), ("arithmetic", 0.25e-3), ("lapack", 0.5e-3), ("allocation", 0.4e-3))
#: Fewest readings of a kind a slowdown is taken from; a shorter window
#: borrows the readings nearest to it.
MIN_READINGS = 5


def make_chunks() -> List[Callable[[], object]]:
    """The chunk of every kind, in the order of :data:`KINDS`."""
    import numpy

    rng = random.Random(2015)
    table = {rng.getrandbits(40): i for i in range(300_000)}
    keys = list(table)
    rng.shuffle(keys)
    cursor = [0]

    def lookups() -> int:
        # 2000 cache-missing lookups in a 300,000-entry dict.
        start = cursor[0]
        cursor[0] = (start + 2000) % (len(keys) - 2000)
        return sum(table[key] for key in keys[start:start + 2000])

    def arithmetic() -> int:
        total = 0
        for i in range(3000):
            total += i * i % 7
        return total

    matrices = numpy.random.default_rng(2015).standard_normal((32, 24, 24)) + 24 * numpy.eye(24)
    rhs = numpy.ones((32, 24, 1))

    def lapack() -> object:
        # Two stacked 24x24 solves, the shape of a batched DC tick.
        numpy.linalg.solve(matrices, rhs)
        return numpy.linalg.solve(matrices, rhs)

    def allocation() -> int:
        rows = [{"size": i, "value": i * 0.5, "name": f"x{i}"} for i in range(600)]
        return len(rows)

    return [lookups, arithmetic, lapack, allocation]


def sample() -> None:
    chunks = make_chunks()
    readings = []
    print("ready", flush=True)
    tick = 0
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        kind = tick % len(chunks)
        started = time.perf_counter()
        chunks[kind]()
        readings.append((started, time.perf_counter() - started, kind))
        tick += 1
    sys.stdout.write(json.dumps(readings))
    sys.stdout.flush()


class SpeedProbe:
    """Parent side: start the probe, stop it, attribute its readings."""

    def __init__(self, python: str, env: dict) -> None:
        self.readings: List[Sequence[float]] = []
        self._slowdowns: Dict[Tuple[float, float], float] = {}
        self._process: Optional[subprocess.Popen] = subprocess.Popen(
            [python, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        # Timed windows start only once the probe samples.
        if self._process.stdout.readline().strip() != "ready":
            self.stop()

    def stop(self) -> None:
        """Collect the readings; idempotent, and safe on every exit path."""
        process, self._process = self._process, None
        if process is None:
            return
        try:
            out, _ = process.communicate("stop\n", timeout=10)
            self.readings = json.loads(out)
        except (subprocess.TimeoutExpired, ValueError, OSError):
            process.kill()
            process.wait()

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Geometric mean over kinds of median reading / reference in a window."""
        if (start, end) not in self._slowdowns:
            self._slowdowns[start, end] = self._slowdown(start, end)
        return self._slowdowns[start, end]

    def _slowdown(self, start: float, end: float) -> float:
        logs = []
        for kind, (_, reference) in enumerate(KINDS):
            mine = [(t, d) for t, d, k in self.readings if k == kind]
            inside = [d for t, d in mine if start <= t <= end]
            if len(inside) < MIN_READINGS < len(mine):
                middle = (start + end) / 2
                inside = [d for t, d in sorted(mine, key=lambda reading: abs(reading[0] - middle))[:MIN_READINGS]]
            if inside:
                logs.append(math.log(statistics.median(inside) / reference))
        return math.exp(sum(logs) / len(logs)) if logs else 1.0

    def normalised(self, wall: float, start: float, end: float) -> float:
        return wall / self.slowdown(start, end)

    def kind_slowdowns(self) -> Dict[str, float]:
        """Each kind's median reading over its reference, over the whole run."""
        return {
            name: statistics.median(d for _, d, k in self.readings if k == kind) / reference
            for kind, (name, reference) in enumerate(KINDS)
            if any(k == kind for _, _, k in self.readings)
        }


if __name__ == "__main__":
    sample()
