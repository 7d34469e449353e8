"""Out-of-process benchmark of the quandlequiver CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the workload runs in
a fresh interpreter (``worker.py``), so every pass pays the cold start a
CLI user pays.  Passes repeat until about S seconds have been measured.
With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics.  The line before it records the seed, the argv lists
and every failed invocation.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from selftest import gate_self_check
from spans import per_layer_metric_names
from workloads import SCALED, WORKLOADS, build_plan, plan_to_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170        # a run must end within 180 s
SETUP_SAMPLES = 5
MIN_PASSES = 2
# time of worker.calibration_kernel on the reference machine: a 2-vCPU
# x86-64 cloud VM, Python 3.11, numpy 2.4, when it ran at its faster speed
CALIBRATION_REF_S = 0.06


def scaled_wall(result: dict) -> float:
    """A pass's invocation time, scaled to the reference machine speed."""
    return result["wall_s"] * CALIBRATION_REF_S / statistics.mean(result["calibration_s"])


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env, deadline: float) -> list[float]:
    """Interpreter start plus `import quandlequiver.cli`, after one warm-up."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import quandlequiver.cli"], env=env, check=True,
                       cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
        if k:
            samples.append(time.perf_counter() - start)
    return samples


def run_pass(plan_path: Path, tmp: Path, index: int, traced: bool, env, deadline: float) -> dict:
    out_dir = tmp / f"pass{index}"
    out_dir.mkdir()
    result_path = tmp / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path), str(out_dir)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker pass {index} exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(out_dir)
    return result


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "quandlequiver" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    problems = gate_self_check()
    if problems:
        raise RuntimeError("gate self-check failed: " + "; ".join(problems))
    plan = build_plan(args.workload, args.seed)
    env = program_env()
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps(plan_to_json(plan)), encoding="utf-8")
        setup = [] if args.trace else measure_setup(env, deadline)

        passes: list[tuple[bool, dict]] = []
        measure_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_start = time.monotonic()
            passes.append((traced, run_pass(plan_path, tmp, len(passes), traced, env, deadline)))
            now = time.monotonic()
            enough = len(passes) >= MIN_PASSES
            if enough and now - measure_start + (now - pass_start) > args.seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    plain = [r for traced, r in passes if not traced]
    outcomes = [o for _, r in passes for o in r["outcomes"]]
    checked = [o for o in outcomes if not o["probe"]]
    failed = [o for o in checked if not o["ok"]]
    failures = {o["id"]: o["reason"] for o in outcomes if not o["ok"]}

    if args.trace:
        traced_runs = [r for traced, r in passes if traced]
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced_runs)
            for name in traced_runs[0]["layers"]
        }
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            r["wall_s"] for r in plain)
        units = {name: unit for name, unit, _ in per_layer_metric_names()}
        absent = sorted({a for r in traced_runs for a in r["absent"]})
        failed_layers = {
            name: statistics.median(r["failed_layers"].get(name, 0.0) for r in traced_runs)
            for name in sorted({n for r in traced_runs for n in r["failed_layers"]})
        }
    else:
        metrics = {
            "wall_s": statistics.median(
                scaled_wall(r) if args.workload in SCALED else r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "setup_s": statistics.median(setup),
            "pass_rate": sum(o["ok"] for o in outcomes) / len(outcomes),
        }
        units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_rate": "ratio"}
        absent = []
        failed_layers = {}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_traced": [traced for traced, _ in passes],
        "pass_raw_wall_s": [r["wall_s"] for _, r in passes],
        "pass_calibration_s": [r["calibration_s"] for _, r in passes],
        "setup_samples_s": setup,
        "fail_rate": (len(outcomes) - sum(o["ok"] for o in outcomes)) / len(outcomes),
        "failures": failures,
        "absent": absent,
        "failed_invocation_layers_s": failed_layers,
        "invocations": [{"id": inv.id, "argv": inv.argv, "probe": inv.probe} for inv in plan],
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running
    # pass and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
