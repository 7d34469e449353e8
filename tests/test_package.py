"""Tests for the package's public namespace."""

import ast
import dataclasses
import inspect
from pathlib import Path

import quandlequiver


def test_every_public_name_resolves():
    for name in quandlequiver.__all__:
        assert hasattr(quandlequiver, name), name
    namespace = {}
    exec("from quandlequiver import *", namespace)
    assert set(quandlequiver.__all__) <= set(namespace)


def test_every_public_name_is_used_inside_the_package():
    # each public name is read by some module of the package (as a name, an
    # attribute or an import), and each public method, property and
    # dataclass field of a public class is loaded as an attribute, so none
    # is there only for the tests to call
    package = Path(quandlequiver.__file__).parent
    used, loaded = set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(quandlequiver.__all__) - used) == []
    unread = []
    for name in quandlequiver.__all__:
        cls = getattr(quandlequiver, name)
        if inspect.isclass(cls):
            members = set(vars(cls))
            if dataclasses.is_dataclass(cls):
                members |= {field.name for field in dataclasses.fields(cls)}
            unread += [f"{name}.{m}" for m in sorted(members - loaded) if not m.startswith("_")]
    assert unread == []


def test_every_np_unique_call_asks_for_a_return_array():
    # numpy's plain np.unique(x) takes a hash-table path whose first call in
    # a process costs 10-15 ms; with a return_* flag it sorts instead
    package = Path(quandlequiver.__file__).parent
    plain = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and not any(
                    (k.arg or "").startswith("return_") and getattr(k.value, "value", None) is True
                    for k in node.keywords
                )
            ):
                plain.append(f"{path.name}:{node.lineno}")
    assert plain == []


def test_the_references_do_not_read_the_package():
    # the references check the package; one that read the package's logic
    # (its R_n, its period search, its primality test) would copy a wrong
    # answer into the check.  They take from the package only the data
    # containers they build or hand results over in, and its error types
    here = Path(__file__).parent
    errors = Path(quandlequiver.__file__).parent / "errors.py"
    allowed = {
        "quandlequiver.braids.BraidWord",
        "quandlequiver.braids.TorusLinkSpec",
        "quandlequiver.colorings.ColoringSet",
        "quandlequiver.quivers.QuiverForm",
        "quandlequiver.quivers.WeightedQuiver",
    } | {
        f"quandlequiver.errors.{node.name}"
        for node in ast.parse(errors.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    references = sorted(here.glob("*_reference.py"))
    assert {path.name for path in references} >= {
        "braid_reference.py", "intmatrix_reference.py", "oracle_reference.py", "quiver_reference.py"}
    read = {}
    for path in references:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.split(".")[0] == "quandlequiver"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quandlequiver":
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            read[path.name] = read.get(path.name, []) + [n for n in names if n not in allowed]
    assert {name: names for name, names in read.items() if names} == {}
