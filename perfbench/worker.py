"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json RESULT.json OUT_DIR [--trace]

Runs every invocation of the plan through ``quandlequiver.cli.main`` in
this process, checks each against its expectation, and writes timings,
outcomes, peak memory and (with --trace) per-layer numbers to RESULT.json.
The program must be importable, which ``run.py`` arranges through
PYTHONPATH.

The speed of a shared machine drifts by tens of percent over minutes, so
the pass also times a fixed calibration kernel: before the first
invocation, after each second or more of program time, and after the last
invocation.  ``run.py`` uses these samples to scale the pass's wall time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np

from gate import run_invocation
from workloads import plan_from_json

CALIBRATION_EVERY_S = 1.0


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of the program's kinds of work.

    Interpreter work on dicts and tuples, as in quiver building and block
    detection, then numpy gathers through a small table on a slab of 2^16
    rows, as in the oracle.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(120_000):
        key = (i * 7919) % 40_000
        table[key] = table.get(key, 0) + i
    rows = [tuple(range(k, k + 8)) for k in range(20_000)]
    rows.sort(reverse=True)
    cayley = (2 * np.arange(7)[None, :] - np.arange(7)[:, None]) % 7
    x = np.arange(1 << 16, dtype=np.int64) % 7
    y = (3 * x + 1) % 7
    for _ in range(120):
        x, y = y, cayley[x, y]
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    plan_path, result_path, out_dir = argv[0], argv[1], Path(argv[2])
    traced = "--trace" in argv[3:]
    plan = plan_from_json(json.loads(Path(plan_path).read_text(encoding="utf-8")))

    from quandlequiver import cli

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calibration = [calibration_kernel()]
    outcomes = []
    failed_layers: dict[str, float] = defaultdict(float)  # traced time of failed invocations
    since = 0.0
    for k, inv in enumerate(plan):
        before = tracer.report() if tracer is not None else None
        outcome = run_invocation(cli.main, inv, out_dir)
        outcomes.append(outcome)
        if before is not None and not outcome.ok:
            after = tracer.report()
            for name, value in after.items():
                if name.endswith("_s"):
                    failed_layers[name] += value - before[name]
        since += outcome.seconds
        if since >= CALIBRATION_EVERY_S or k == len(plan) - 1:
            calibration.append(calibration_kernel())
            since = 0.0
    result = {
        "wall_s": sum(o.seconds for o in outcomes),
        "calibration_s": calibration,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outcomes": [asdict(o) for o in outcomes],
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        result["failed_layers"] = dict(failed_layers)
        result["absent"] = sorted(tracer.absent)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
