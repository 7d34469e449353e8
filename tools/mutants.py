"""Mutation pass: flip one operator at a time in one module and run its tests.

Each mutant changes one comparison (`<` to `<=`, `==` to `!=`, ...) or one
arithmetic operator (`+` to `-`, `*` to `//`, ...) of the module, chosen
by a seeded draw from every such site outside type annotations.  The
mutant runs in a fresh copy of `src/`, `tests/` and `pyproject.toml`, so
the checkout is never touched, with `pytest -x` on the given test files
under a wall-time limit.  A mutant is killed when a test fails or the
module no longer imports, hung when it runs past the limit, and survives
when every test passes; a survivor shows either a missing test or an
equivalent mutant, which needs a reason.

    python tools/mutants.py src/quandlequiver/colorings.py \\
        --tests tests/test_colorings.py --count 25 --seed 0

Not part of the test suite: a pass runs the module's tests once per mutant.
"""

from __future__ import annotations

import argparse
import ast
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each operator's replacement: a boundary moved, a test negated, or an
# arithmetic step turned into its nearest wrong one
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
}


def _annotations(tree: ast.AST) -> set[int]:
    """ids of every node inside a type annotation, which a mutant must not
    touch: with postponed annotations it would change nothing."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            roots.append(node.returns)
    return {id(inner) for root in roots for inner in ast.walk(root)}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every mutable operator of the tree in ast.walk order: (Compare node,
    index of its operator) or (BinOp or AugAssign node, None)."""
    skip = _annotations(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, ast.BinOp | ast.AugAssign) and type(node.op) in FLIPS:
            found.append((node, None))
    return found


def _symbol(op: ast.AST) -> str:
    a, b = ast.Name("a"), ast.Name("b")
    node = ast.Compare(a, [op], [b]) if isinstance(op, ast.cmpop) else ast.BinOp(a, op, b)
    return ast.unparse(node)[2:-2]


def mutate(source: str, k: int) -> tuple[str, int, str]:
    """(mutated source, line, 'old -> new') for the k-th site of `source`."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    old = node.ops[i] if i is not None else node.op
    new = FLIPS[type(old)]()
    if i is not None:
        node.ops[i] = new
    else:
        node.op = new
    return ast.unparse(tree), node.lineno, f"{_symbol(old)} -> {_symbol(new)}"


def run(module: Path, source: str, tests: list[str], timeout: float) -> tuple[str, str]:
    """('killed', 'hung' or 'survived', pytest's summary line) for the
    module's source `source` under `tests`."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / module).write_text(source, encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(argv, cwd=copy, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "hung", f"past {timeout:g} s"
    summary = done.stdout.decode(errors="replace").strip().splitlines()[-1:] or [""]
    if done.returncode in (1, 2):  # a test failed, or the mutant broke collection
        return "killed", summary[0]
    if done.returncode == 0:
        return "survived", summary[0]
    raise RuntimeError(f"pytest exited {done.returncode}: {done.stdout.decode()[-2000:]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module path from the checkout root, e.g. src/quandlequiver/colorings.py")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run on each mutant")
    parser.add_argument("--count", type=int, default=25, help="mutants drawn (default 25)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw (default 0)")
    parser.add_argument("--timeout", type=float, default=180.0, help="seconds per mutant (default 180)")
    args = parser.parse_args(argv)
    module = Path(args.module)
    source = (ROOT / module).read_text(encoding="utf-8")
    total = len(sites(ast.parse(source)))
    drawn = sorted(random.Random(args.seed).sample(range(total), min(args.count, total)))
    print(f"{module}: {total} sites, {len(drawn)} drawn with seed {args.seed}")
    outcomes = {"killed": 0, "hung": 0, "survived": 0}
    for k in drawn:
        mutated, line, change = mutate(source, k)
        start = time.monotonic()
        outcome, summary = run(module, mutated, args.tests, args.timeout)
        outcomes[outcome] += 1
        elapsed = time.monotonic() - start
        print(f"site {k:4d}  line {line:4d}  {change:10s}  {outcome:8s}  {elapsed:6.1f} s  {summary}", flush=True)
    print(", ".join(f"{name} {n}" for name, n in outcomes.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
