"""Run one CLI invocation in-process and check it against its expectation.

An invocation fails when ``main`` raises anything (a traceback, a
RecursionError, argparse's SystemExit), returns an exit code other than
the expected one, or leaves stdout, stderr or an output file different
from what was expected.  Every exception is caught so that a pass keeps
going after a failure.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Invocation, sha256


@dataclass
class Outcome:
    id: str
    seconds: float
    ok: bool
    reason: str
    probe: bool


def fill(argv: list[str], out_dir: Path) -> list[str]:
    return [a.replace("{out}", str(out_dir)) for a in argv]


def capture(main, argv: list[str]):
    """Call main(argv) with stdout and stderr captured.

    Returns (exit code or None, exception or None, stdout, stderr, seconds);
    only the call itself is timed.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            raised = exc
        seconds = time.perf_counter() - start
    return code, raised, stdout.getvalue(), stderr.getvalue(), seconds


def run_invocation(main, inv: Invocation, out_dir: Path) -> Outcome:
    for name in inv.files:
        (out_dir / name).unlink(missing_ok=True)
    code, raised, out, err, seconds = capture(main, fill(inv.argv, out_dir))
    reason = check(inv, code, raised, out, err, out_dir)
    return Outcome(inv.id, seconds, reason == "", reason, inv.probe)


def check(inv: Invocation, code, raised, out: str, err: str, out_dir: Path) -> str:
    """Empty string when the invocation met its expectation, else why not."""
    if raised is not None:
        return f"raised {type(raised).__name__}: {str(raised)[:200]}"
    if code != inv.exit:
        return f"exit {code}, expected {inv.exit}"
    if sha256(out) != inv.stdout:
        return "stdout digest differs"
    if inv.stderr_lines is not None and len(err.splitlines()) != inv.stderr_lines:
        return f"stderr has {len(err.splitlines())} lines, expected {inv.stderr_lines}"
    for name, digest in sorted(inv.files.items()):
        path = out_dir / name
        if not path.is_file():
            return f"output file {name} missing"
        if sha256(path.read_bytes()) != digest:
            return f"output file {name} digest differs"
    return ""
