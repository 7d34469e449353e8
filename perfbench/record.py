"""Record the expected outcome of every fixed invocation into expected.json.

    PYTHONPATH=src python3 perfbench/record.py

Run once against a trusted version of the program.  Ordinary invocations
expect what that version printed and wrote.  Probes of known defects
expect their correct outcome instead: a large ``--compare`` expects exit 0,
``isomorphic=true`` and the same DOT as the call without ``--compare``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from gate import capture, fill
from workloads import COMPARE_PROBES, EXPECTED_PATH, compare_argv, fixed_argv, sha256


def output_files(argv: list[str]) -> list[str]:
    return [a[len("{out}/"):] for a in argv if a.startswith("{out}/")]


def record(main, argv: list[str], out_dir: Path) -> dict:
    code, raised, out, _, _ = capture(main, fill(argv, out_dir))
    if raised is not None:
        raise RuntimeError(f"{argv} raised {raised!r}; cannot record it")
    return {
        "exit": code,
        "stdout": sha256(out),
        "files": {name: sha256((out_dir / name).read_bytes()) for name in output_files(argv)},
    }


def main() -> int:
    from quandlequiver import cli

    expected: dict[str, dict] = {}
    probes = {inv_id: (link, n) for inv_id, link, n in COMPARE_PROBES}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for workload in ("sweep", "compare", "blocks"):
            table = expected.setdefault(workload, {})
            for inv_id, argv, probe in fixed_argv(workload):
                if probe:
                    link, n = probes[inv_id]
                    twin = record(cli.main, compare_argv(link, n, False, inv_id + ".dot"), out_dir)
                    table[inv_id] = dict(twin, exit=0, stdout=sha256("isomorphic=true\n"))
                else:
                    table[inv_id] = record(cli.main, argv, out_dir)
                print(workload, inv_id, table[inv_id]["exit"], file=sys.stderr)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
