"""Command-line interface.

Exit codes: 0 clean, 2 a computed/predicted or backend mismatch, a bad
request or an output file that cannot be written, 3 ambiguity encountered
(and nothing worse), 4 a size cap exceeded.  A bad request is rejected
before any work, with one line on stderr and nothing on stdout; a failed
write also ends with one line on stderr.  A stdout closed before the
output is written (``| head -c 0``) is a failed write: exit 2, one line
on stderr, no traceback.

``main(argv)`` may be called any number of times in one process: the
argument parser is built at the first call and shared by the rest.
Parsing keeps no state in it; each call reads the cap variables afresh
and gets a new namespace.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .braids import TorusLinkSpec, parse_link
from .colorings import enumerate_colorings_linear
from .config import check_environment, positive_integer
from .counting import (
    STATUS_AMBIGUOUS,
    STATUS_AMBIGUOUS_RESOLVED,
    STATUS_MATCH,
    STATUS_MISMATCH,
    evaluate_cells,
    is_odd_prime,
    is_prime,
    predict_count,
    verify_counts,
)
from .errors import CapExceededError
from .export import ExportOptions, to_csv, to_dot, to_json
from .quandles import affine_endomorphisms, brute_force_endomorphisms
from .quivers import build_quiver, detect_blocks, isomorphic, quiver_form_for_count

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_AMBIGUOUS = 3
EXIT_CAP = 4


class BadRequest(Exception):
    """Input rejected before any work: exit 2, one line on stderr, nothing on stdout."""


class WriteFailed(Exception):
    """An output file could not be written: exit 2, one line on stderr."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a bad request, not as a usage block and SystemExit."""

    def error(self, message):
        # a subcommand's parser is named "quandlequiver <command>"
        raise BadRequest(f"{self.prog.split()[-1]}: {message}")


def _request(parse, *args):
    """Call a parser of request input; the ValueError it raises is a bad request."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise BadRequest(exc) from None


def _positive(text: str) -> int:
    """argparse type of the caps and --jobs: the rule the cap variables follow."""
    try:
        return positive_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_outputs(args):
    """Reject an output path that is a directory or lies in none, before any work."""
    # every command's output path options; "-" means stdout
    for dest in ("out", "csv", "json"):
        path = getattr(args, dest, None)
        if path is None or path == "-":
            continue
        if os.path.isdir(path):
            raise BadRequest(f"cannot write {path!r}: Is a directory")
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise BadRequest(f"--{dest}: no such directory {directory!r}")


def _moduli(ns: list[int]) -> list[int]:
    if ns[0] < 2:
        raise BadRequest(f"n must be at least 2, got {ns[0]}")
    return ns


def parse_int_list(text: str) -> list[int]:
    """'5,7' / '0..20' / '1,4..6' -> sorted unique ints."""
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        try:
            lo, hi = (int(x) for x in part.split("..")) if ".." in part else (int(part),) * 2
        except ValueError:
            raise ValueError(f"expected an integer or a range like 2..9, got {part!r}") from None
        if hi < lo:
            raise ValueError(f"empty range {part!r}")
        out.update(range(lo, hi + 1))
    return sorted(out)


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise WriteFailed(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _exit_code(statuses) -> int:
    if STATUS_MISMATCH in statuses:
        return EXIT_MISMATCH
    if STATUS_AMBIGUOUS in statuses or STATUS_AMBIGUOUS_RESOLVED in statuses:
        return EXIT_AMBIGUOUS
    return EXIT_OK


def _count_row(link: str, cell) -> dict:
    """Print one count line and return its JSON record."""
    prediction = cell.prediction
    status = "ok" if cell.status == STATUS_MATCH else cell.status
    count = cell.computed if cell.computed is not None else prediction.n_colorings
    row: dict = {"link": link, "n": cell.n}
    if prediction is not None:
        row["case"] = prediction.case
        row["predicted"] = prediction.predicted
    if count is not None:
        row["count"] = count
    row["status"] = status
    if prediction is not None and prediction.ambiguous:
        if count is None:
            print(f"{link} n={cell.n}: ambiguous, candidates {prediction.candidates}")
        else:
            print(f"{link} n={cell.n}: candidates {prediction.candidates}, computed {count} [{status}]")
    else:
        case = f" case={prediction.case}" if prediction is not None else ""
        print(f"{link} n={cell.n}: N={count}{case} [{status}]")
    return row


def cmd_count(args) -> int:
    link = _request(parse_link, args.link)
    ns = _moduli(_request(parse_int_list, args.n))
    routes = ("formula", "linear", "oracle") if args.backend == "all" else (args.backend,)
    formula = (
        "formula" in routes
        and isinstance(link, TorusLinkSpec)
        and _request(is_odd_prime, link.p)  # a p past the test's bound is a bad request
    )
    if args.backend == "formula" and not formula:
        raise BadRequest("the formula backend needs torus:p,q with p an odd prime")
    cells = evaluate_cells(
        [link],
        ns,
        formula=formula,
        linear="linear" in routes,
        oracle_ns=ns if "oracle" in routes else (),
        cap=args.oracle_cap,
    )
    records = []
    try:
        for cell in cells:
            if cell.routes_disagree:
                counts = {
                    "formula": cell.prediction and cell.prediction.n_colorings,
                    "linear": cell.computed_linear,
                    "oracle": cell.computed_oracle,
                }
                print(
                    f"count: backend disagreement for n={cell.n}: "
                    + ", ".join(f"{k}={v}" for k, v in counts.items() if v is not None),
                    file=sys.stderr,
                )
                return EXIT_MISMATCH
            records.append(_count_row(args.link.strip(), cell))
    except CapExceededError as exc:
        print(f"count: {exc}", file=sys.stderr)
        return EXIT_CAP
    if args.json:
        _write(args.json, to_json(records))
    return _exit_code({row["status"] for row in records})


def cmd_quiver(args) -> int:
    link = _request(parse_link, args.link)
    [n] = _moduli([args.n])
    torus = link if isinstance(link, TorusLinkSpec) else None
    if args.compare and torus is None:
        raise BadRequest("--compare needs a torus:p,q link")
    if args.compare and not _request(is_prime, torus.p):
        raise BadRequest(f"--compare needs p prime, got {torus.p}")
    if args.collapse and args.format != "dot":
        raise BadRequest("--collapse applies to dot output only")
    if args.no_loops and (args.collapse or args.format != "dot"):
        raise BadRequest("--no-loops applies to full dot output only")
    try:
        coloring_set = enumerate_colorings_linear(link, n, cap=args.enum_cap)
    except CapExceededError as exc:
        print(f"quiver: {exc.size} colorings exceed the enumeration cap", file=sys.stderr)
        return EXIT_CAP
    if args.endos == "brute":
        try:
            endos = brute_force_endomorphisms(coloring_set.quandle)
        except CapExceededError as exc:
            print(f"quiver: {exc}", file=sys.stderr)
            return EXIT_CAP
    else:
        endos = affine_endomorphisms(n)
    quiver = build_quiver(coloring_set, endos)
    # one block detection serves both the comparison and the export
    detected = (
        detect_blocks(quiver)
        if args.compare or args.collapse or args.format == "json"
        else None
    )

    exit_code = EXIT_OK
    if args.compare:
        p, q = torus.p, torus.q
        ambiguous = False
        if is_odd_prime(p):
            prediction = predict_count(p, q, n)
            ambiguous = prediction.ambiguous
        try:
            form = quiver_form_for_count(p, n, coloring_set.count)
        except ValueError as exc:
            print(f"quiver: {exc}", file=sys.stderr)
            return EXIT_MISMATCH
        if isomorphic(quiver, form, detected) is None:
            print("isomorphic=false")
            exit_code = EXIT_MISMATCH
        else:
            note = " (ambiguous count, resolved by computation)" if ambiguous else ""
            print(f"isomorphic=true{note}")
            if ambiguous:
                exit_code = EXIT_AMBIGUOUS

    options = ExportOptions(
        collapse_blocks=args.collapse, include_loops=not args.no_loops
    )
    if args.format == "dot":
        _write(args.out, to_dot(quiver, options, detected))
    else:
        params = {"n": n}
        if torus is not None:
            params = {"p": torus.p, "q": torus.q, "n": n}
        _write(args.out, to_json(quiver, params=params, detected=detected))
    return exit_code


def cmd_verify(args) -> int:
    ps = _request(parse_int_list, args.p)
    qs = _request(parse_int_list, args.q)
    ns = _moduli(_request(parse_int_list, args.n))
    for p in ps:
        if not _request(is_odd_prime, p):
            raise BadRequest(f"p must be odd primes, got {p}")
    if qs[0] < 0:
        raise BadRequest(f"q must be nonnegative, got {qs[0]}")
    report = verify_counts(ps, qs, ns, cap=args.oracle_cap, jobs=args.jobs)
    mismatches = [r for r in report if r.status == STATUS_MISMATCH]
    resolved = [r for r in report if r.status == STATUS_AMBIGUOUS_RESOLVED]
    print(
        f"{len(report)} cells: {len(report) - len(mismatches) - len(resolved)} match, "
        f"{len(resolved)} ambiguous-resolved, {len(mismatches)} mismatch"
    )
    for record in mismatches:
        print(
            f"  mismatch at (p={record.p}, q={record.q}, n={record.n}): "
            f"predicted {record.prediction.candidates}, computed {record.computed}"
        )
    if args.out:
        _write(args.out, to_json(report))
    if args.csv:
        _write(args.csv, to_csv(report))
    return _exit_code({r.status for r in report})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built at the first call."""
    parser = _ArgumentParser(
        prog="quandlequiver",
        description="Count quandle colorings of braid closures and draw their quivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count colorings of a link by R_n")
    count.add_argument("--link", required=True, help="torus:p,q or a braid word like 's1 -s2'")
    count.add_argument("--n", required=True, help="modulus or list/range, e.g. 5 or 2..9")
    count.add_argument(
        "--backend",
        choices=["formula", "linear", "oracle", "all"],
        default="all",
    )
    count.add_argument("--oracle-cap", type=_positive, default=None)
    count.add_argument("--json", default=None, help="write records to this JSON file")
    count.set_defaults(func=cmd_count)

    quiver = sub.add_parser("quiver", help="build the coloring quiver")
    quiver.add_argument("--link", required=True)
    quiver.add_argument("--n", required=True, type=int)
    quiver.add_argument("--endos", choices=["affine", "brute"], default="affine")
    quiver.add_argument("--compare", action="store_true",
                        help="check the computed quiver against its closed form")
    quiver.add_argument("--format", choices=["dot", "json"], default="dot")
    quiver.add_argument("--collapse", action="store_true",
                        help="collapse uniform blocks (dot only)")
    quiver.add_argument("--no-loops", action="store_true",
                        help="omit loop edges from full dot output")
    quiver.add_argument("--enum-cap", type=_positive, default=None)
    quiver.add_argument("--out", default=None, help="output path (default stdout)")
    quiver.set_defaults(func=cmd_quiver)

    verify = sub.add_parser("verify", help="sweep a grid and compare all routes")
    verify.add_argument("--p", required=True, help="odd primes, e.g. 5,7")
    verify.add_argument("--q", required=True, help="range, e.g. 0..20")
    verify.add_argument("--n", required=True, help="range, e.g. 2..9")
    verify.add_argument("--oracle-cap", type=_positive, default=None)
    verify.add_argument("--jobs", type=_positive, default=1)
    verify.add_argument("--out", default=None, help="JSON report path")
    verify.add_argument("--csv", default=None, help="CSV report path")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except BadRequest as exc:
        print(exc, file=sys.stderr)
        return EXIT_MISMATCH
    try:
        _request(check_environment)
        _check_outputs(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # point stdout at os.devnull, so the interpreter's final flush of
        # what is still buffered does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"{args.command}: cannot write to stdout: broken pipe", file=sys.stderr)
        return EXIT_MISMATCH
    except (BadRequest, WriteFailed) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
