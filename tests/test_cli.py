"""Tests for the command-line interface: exit codes, output formats, files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlequiver
from quandlequiver import cli, export, quivers
from quandlequiver.cli import (
    EXIT_AMBIGUOUS,
    EXIT_CAP,
    EXIT_MISMATCH,
    EXIT_OK,
    main,
    parse_int_list,
)
from quandlequiver.counting import STATUS_MATCH, verify_counts


def test_parse_int_list():
    assert parse_int_list("5,7") == [5, 7]
    assert parse_int_list("0..4") == [0, 1, 2, 3, 4]
    assert parse_int_list("1,4..6") == [1, 4, 5, 6]
    assert parse_int_list("3,3,3") == [3]
    with pytest.raises(ValueError):
        parse_int_list("5..3")
    with pytest.raises(ValueError):
        parse_int_list("x")


def test_count_clean(capsys):
    code = main(["count", "--link", "torus:5,10", "--n", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "N=243" in out
    assert "case=free" in out
    assert "[ok]" in out


def test_count_ambiguous_resolves_and_exits_3(capsys):
    code = main(["count", "--link", "torus:5,2", "--n", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_AMBIGUOUS
    assert "candidates (5, 25)" in out
    assert "computed 25" in out
    assert "ambiguous-resolved" in out


def test_count_formula_only_ambiguous_has_no_winner(capsys):
    code = main(["count", "--link", "torus:5,2", "--n", "5", "--backend", "formula"])
    out = capsys.readouterr().out
    assert code == EXIT_AMBIGUOUS
    assert "candidates (5, 25)" in out
    assert "computed" not in out


def test_count_formula_rejects_non_torus(capsys):
    code = main(["count", "--link", "s1 -s2 s1 -s2", "--n", "5", "--backend", "formula"])
    assert code == EXIT_MISMATCH
    assert "odd prime" in capsys.readouterr().err


def test_count_non_torus_all_backends_skips_formula(capsys):
    code = main(["count", "--link", "s1 -s2 s1 -s2", "--n", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "N=25" in out


def test_count_oracle_cap_exits_4(capsys):
    code = main(
        ["count", "--link", "torus:5,2", "--n", "17", "--backend", "oracle", "--oracle-cap", "100"]
    )
    assert code == EXIT_CAP
    assert "1419857" in capsys.readouterr().err


def test_count_range_and_json(tmp_path, capsys):
    path = tmp_path / "counts.json"
    code = main(["count", "--link", "torus:3,2", "--n", "2..4", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_AMBIGUOUS  # n=3 hits the ambiguous cell
    assert out.count("\n") == 3
    records = json.loads(path.read_text())
    assert [r["n"] for r in records] == [2, 3, 4]
    assert records[0] == {
        "link": "torus:3,2",
        "n": 2,
        "case": "gcd-even",
        "predicted": 2,
        "status": "ok",
        "count": 2,
    }
    assert records[1]["status"] == "ambiguous-resolved"
    assert records[1]["count"] == 9


def test_quiver_dot_to_stdout(capsys):
    code = main(["quiver", "--link", "torus:5,1", "--n", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("digraph quiver {")
    assert out.count("->") == 16


def test_quiver_no_loops(capsys):
    code = main(["quiver", "--link", "torus:5,1", "--n", "4", "--no-loops"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count("->") == 12
    assert "v0 -> v0" not in out


def test_quiver_compare_collapse(capsys):
    code = main(["quiver", "--link", "torus:3,4", "--n", "9", "--compare", "--collapse"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "isomorphic=true" in out
    assert 'b0 [label="K9 w=9"];' in out
    assert 'b1 [label="K18 w=3"];' in out
    assert 'b1 -> b0 [label="3"];' in out


def test_quiver_compare_ambiguous_exits_3(capsys):
    code = main(["quiver", "--link", "torus:5,2", "--n", "5", "--compare", "--format", "dot"])
    out = capsys.readouterr().out
    assert code == EXIT_AMBIGUOUS
    assert "isomorphic=true (ambiguous count, resolved by computation)" in out


def test_quiver_compare_large_quiver(tmp_path, capsys):
    # N = 3125 vertices, more than one stack frame per vertex allows
    code = main(["quiver", "--link", "torus:5,10", "--n", "5", "--compare",
                 "--out", str(tmp_path / "quiver.dot")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("isomorphic=true")


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver", "--link", "torus:5,10", "--n", "5", "--compare", "--format", "json"],
        ["quiver", "--link", "torus:3,4", "--n", "9", "--compare", "--collapse"],
    ],
)
def test_quiver_compare_detects_blocks_once(argv, monkeypatch, tmp_path, capsys):
    calls = []
    original = quivers.detect_blocks

    def counted(quiver):
        calls.append(quiver.n_vertices)
        return original(quiver)

    for module in (quivers, export, cli):
        monkeypatch.setattr(module, "detect_blocks", counted)
    code = main(argv + ["--out", str(tmp_path / "quiver.out")])
    assert code in (EXIT_OK, EXIT_AMBIGUOUS)
    assert capsys.readouterr().out.startswith("isomorphic=true")
    assert len(calls) == 1


def test_quiver_json_out(tmp_path):
    path = tmp_path / "quiver.json"
    code = main(["quiver", "--link", "torus:5,2", "--n", "5", "--format", "json", "--out", str(path)])
    assert code == EXIT_OK
    data = json.loads(path.read_text())
    assert data["params"] == {"p": 5, "q": 2, "n": 5}
    assert data["count"] == 25
    assert data["blocks"]["cross"] == [[1, 0, 1]]


def test_quiver_collapse_requires_dot(capsys):
    code = main(["quiver", "--link", "torus:5,2", "--n", "5", "--format", "json", "--collapse"])
    assert code == EXIT_MISMATCH
    assert "dot output only" in capsys.readouterr().err


def test_quiver_brute_endos_match_affine(capsys):
    code = main(["quiver", "--link", "torus:2,3", "--n", "3", "--endos", "brute"])
    brute_out = capsys.readouterr().out
    code2 = main(["quiver", "--link", "torus:2,3", "--n", "3"])
    affine_out = capsys.readouterr().out
    assert code == code2 == EXIT_OK
    assert brute_out == affine_out


def test_verify_clean_grid_exits_0(capsys):
    code = main(["verify", "--p", "5", "--q", "1,3", "--n", "2..4", "--oracle-cap", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "6 cells: 6 match, 0 ambiguous-resolved, 0 mismatch" in out


def test_verify_ambiguous_grid_exits_3(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    code = main(
        ["verify", "--p", "5", "--q", "2", "--n", "5", "--oracle-cap", "1", "--csv", str(csv_path)]
    )
    assert code == EXIT_AMBIGUOUS
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p,q,n,predicted,case,computed,status"
    assert lines[1] == "5,2,5,5|25,ambiguous,25,ambiguous-resolved"


def test_verify_rejects_even_p(capsys):
    code = main(["verify", "--p", "4", "--q", "2", "--n", "3"])
    assert code == EXIT_MISMATCH
    assert "odd primes" in capsys.readouterr().err


def test_verify_json_report(tmp_path):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "--p", "3", "--q", "0..3", "--n", "2,3", "--oracle-cap", "1", "--out", str(path)]
    )
    assert code == EXIT_AMBIGUOUS
    records = json.loads(path.read_text())
    assert len(records) == 8
    assert all(set(r) == {"p", "q", "n", "predicted", "case", "computed", "status"} for r in records)


def test_repeat_runs_are_byte_identical(capsys):
    main(["quiver", "--link", "torus:5,2", "--n", "5", "--format", "json"])
    first = capsys.readouterr().out
    main(["quiver", "--link", "torus:5,2", "--n", "5", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point():
    # run from the directory holding the package, so an uninstalled checkout finds it too
    proc = subprocess.run(
        [sys.executable, "-m", "quandlequiver", "count", "--link", "torus:2,3", "--n", "3"],
        capture_output=True,
        text=True,
        cwd=Path(quandlequiver.__file__).parents[1],
    )
    assert proc.returncode == EXIT_OK
    assert "N=9" in proc.stdout


BAD_REQUESTS = [
    (["count", "--link", "s1 x2", "--n", "5"], {}),
    (["count", "--link", "torus:5,2", "--n", "1"], {}),
    (["count", "--link", "torus:5,2", "--n", "1", "--backend", "oracle"], {}),
    (["count", "--link", "torus:1,2", "--n", "5"], {}),
    (["count", "--link", "torus:5,2", "--n", "5.."], {}),
    (["quiver", "--link", "torus:5,2", "--n", "1"], {}),
    (["quiver", "--link", "torus:5,2", "--n", "5"], {"QUANDLEQUIVER_ENUM_CAP": "abc"}),
    (["verify", "--p", "3", "--q=-1..2", "--n", "2..4"], {}),
    (["verify", "--p", "3", "--q", "2", "--n", "0..4"], {}),
    (["verify", "--p", "3", "--q", "-1..2", "--n", "2..4"], {}),
    (["quiver", "--link", "torus:5,2"], {}),
]


@pytest.mark.parametrize("argv,env", BAD_REQUESTS)
def test_bad_request_exits_2_with_one_stderr_line(argv, env, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(argv[0] + ": ")
    for name in env:
        assert name in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver", "--link", "torus:5,2", "--n", "5", "--format", "json", "--collapse", "--compare"],
        ["quiver", "--link", "s1 s1 s1", "--n", "3", "--compare"],
        ["quiver", "--link", "torus:4,2", "--n", "4", "--compare"],
    ],
)
def test_quiver_rejects_flag_combinations_before_building(argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started for a rejected request")

    monkeypatch.setattr("quandlequiver.cli.enumerate_colorings_linear", no_work)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quiver", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quandlequiver quiver")


def _count_records(tmp_path, *argv):
    path = tmp_path / "counts.json"
    main(["count", *argv, "--json", str(path)])
    return json.loads(path.read_text())


def test_count_json_key_order(tmp_path, capsys):
    # clean and ambiguous-resolved rows share one shape
    clean, resolved = _count_records(tmp_path, "--link", "torus:3,2", "--n", "2,3")
    assert list(clean) == list(resolved) == ["link", "n", "case", "predicted", "count", "status"]
    [unresolved] = _count_records(tmp_path, "--link", "torus:5,2", "--n", "5", "--backend", "formula")
    assert list(unresolved) == ["link", "n", "case", "predicted", "status"]
    [word] = _count_records(tmp_path, "--link", "s1 -s2 s1 -s2", "--n", "5")
    assert list(word) == ["link", "n", "count", "status"]


def test_count_backend_disagreement_exits_2(monkeypatch, capsys):
    from quandlequiver import counting

    real = counting.enumerate_colorings_oracle

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        result.count += 1
        return result

    monkeypatch.setattr(counting, "enumerate_colorings_oracle", off_by_one)
    code = main(["count", "--link", "torus:5,4", "--n", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert captured.out == ""
    assert captured.err == "count: backend disagreement for n=3: formula=3, linear=3, oracle=4\n"


DIFF_CAP = 10**6  # keeps the 7^8- and 7^9-state oracle cells (4 s and 10 s) out of the suite


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([3, 5, 7]).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, 2 * p), st.integers(2, 9))
    )
)
def test_count_rows_agree_with_verify_records(cell):
    p, q, n = cell
    [record] = verify_counts([p], [q], [n], cap=DIFF_CAP)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "row.json")
        code = main(["count", "--link", f"torus:{p},{q}", "--n", str(n),
                     "--oracle-cap", str(DIFF_CAP), "--json", path])
        rows = json.loads(open(path).read()) if code != EXIT_CAP else []
    if n**p > DIFF_CAP:
        # count refuses the oracle above its cap; verify checks the cell linearly
        assert code == EXIT_CAP and record.computed_oracle is None
        return
    [row] = rows
    assert row["count"] == record.computed
    assert row["status"] == ("ok" if record.status == STATUS_MATCH else record.status)
