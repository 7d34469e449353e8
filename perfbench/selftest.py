"""Self-test of the benchmark's own machinery; needs no program.

    python3 perfbench/selftest.py

Checks that the gate flags a wrong digest, an unexpected exit code and a
raised exception (so a zero failure count cannot come from a gate that
never fails), that traced self times add up to the traced wall time, that
the independent reference count agrees with known coloring counts, and
that BENCHMARK.json names exactly the metrics the benchmark reports.
``run.py`` runs the gate check before every measurement.
"""

from __future__ import annotations

import json
import tempfile
import time
import unittest
from pathlib import Path

from gate import run_invocation
from spans import Tracer, per_layer_metric_names
from workloads import Invocation, reference_count, sha256, smallest_period

HERE = Path(__file__).resolve().parent
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s", "pass_rate")


def _fake_main(argv):
    if argv[0] == "raise":
        raise RuntimeError("boom")
    if argv[0] == "usage":
        raise SystemExit(2)
    print("hello")
    if len(argv) > 1:
        Path(argv[1]).write_text("data", encoding="utf-8")
    return 0


def gate_self_check() -> list[str]:
    """Problems found in the gate; empty when it flags every kind of failure."""
    problems = []
    hello, data, empty = sha256("hello\n"), {"f.txt": sha256("data")}, sha256("")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cases = {
            "a matching invocation": (Invocation("g", ["ok", "{out}/f.txt"], 0, hello, data), True),
            "a wrong stdout digest": (Invocation("d", ["ok"], 0, sha256("bye\n")), False),
            "a wrong file digest": (Invocation("f", ["ok", "{out}/f.txt"], 0, hello,
                                               {"f.txt": sha256("other")}), False),
            "a missing output file": (Invocation("m", ["ok"], 0, hello, data), False),
            "an unexpected exit code": (Invocation("e", ["ok"], 2, hello), False),
            "a raised exception": (Invocation("r", ["raise"], 0, empty), False),
            "argparse's SystemExit": (Invocation("s", ["usage"], 2, empty), False),
            "a wrong stderr line count": (Invocation("l", ["ok"], 0, hello, stderr_lines=1), False),
        }
        for what, (inv, want_ok) in cases.items():
            outcome = run_invocation(_fake_main, inv, out)
            if outcome.ok != want_ok:
                problems.append(f"gate {'rejected' if want_ok else 'accepted'} {what}")
    return problems


class SelfTest(unittest.TestCase):
    def test_gate_flags_every_failure_kind(self):
        self.assertEqual(gate_self_check(), [])

    def test_self_times_add_up_to_traced_wall(self):
        tracer = Tracer()

        def leaf():
            time.sleep(0.01)
            return [1, 2, 3]

        def counted(c, args, kwargs, result):
            time.sleep(0.005)
            c["linalg.kernel_vectors"] += len(result)

        leaf_w = tracer._wrap(leaf, "linalg.kernel_enum_s", counted, "linalg.leaf")

        def middle():
            time.sleep(0.01)
            return leaf_w() + leaf_w()

        middle_w = tracer._wrap(middle, "colorings.linear_self_s", None, "colorings.middle")
        root_w = tracer._wrap(lambda: middle_w(), "cli.self_s", None, "cli.main")
        root_w()
        report = tracer.report()
        selfs = sum(report[name] for name, unit, _ in per_layer_metric_names()
                    if unit == "s" and not name.startswith("trace."))
        self.assertAlmostEqual(selfs, report["trace.wall_s"], places=9)
        self.assertEqual(report["linalg.kernel_vectors"], 6)
        self.assertGreater(report["linalg.kernel_enum_s"], 0.015)
        self.assertLess(report["colorings.linear_self_s"], 0.02)  # counter time excluded

    def test_reference_count(self):
        self.assertEqual(reference_count([1, 1, 1], 2, 3), 9)            # trefoil by R_3
        self.assertEqual(reference_count([1, 1, 1], 2, 5), 5)            # trefoil by R_5
        self.assertEqual(reference_count([1, -2, 1, -2], 3, 5), 25)      # figure-eight by R_5
        self.assertEqual(reference_count([1, 2] * 3, 3, 4), 16)          # T(3,3) by R_4
        self.assertEqual(reference_count([1, 2] * 5, 3, 9), 9)           # T(3,5) by R_9
        self.assertEqual(reference_count([1, 2, 3, 4] * 10, 5, 5), 5**5)  # T(5,10) by R_5

    def test_smallest_period(self):
        self.assertEqual(smallest_period([1, 2, 1, 2, 1, 2]), 2)
        self.assertEqual(smallest_period([1, 2, 1]), 3)

    def test_benchmark_json_names_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            per_layer_metric_names(),
        )


if __name__ == "__main__":
    unittest.main()
