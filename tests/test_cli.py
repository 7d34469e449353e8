"""Tests for the command-line interface: exit codes, output formats, files."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlequiver
from quandlequiver import braids, cli, colorings, counting, export, quivers
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


def refuse_torus_word(monkeypatch):
    """Make any expansion of a torus link into letters raise: for a huge q
    it would allocate (p - 1) * q letters."""

    def refuse(*args):
        raise AssertionError("torus word built")

    monkeypatch.setattr(braids, "torus_braid", refuse)


def test_count_formula_never_expands_the_torus_word(monkeypatch, capsys):
    refuse_torus_word(monkeypatch)
    code = main(["count", "--link", "torus:5,7", "--n", "2..4", "--backend", "formula"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "".join(
        f"torus:5,7 n={n}: N={n} case=trivial-only [ok]\n" for n in (2, 3, 4)
    )


@pytest.mark.parametrize(
    "argv,out",
    [
        (["count", "--link", "torus:5,7", "--n", "2..4", "--backend", "linear"], "torus:5,7 n=4: N=4 [ok]"),
        (["count", "--link", "torus:5,7", "--n", "2..4", "--backend", "oracle"], "torus:5,7 n=4: N=4 [ok]"),
        (["count", "--link", "torus:5,7", "--n", "2..4"], "torus:5,7 n=4: N=4 case=trivial-only [ok]"),
        (["quiver", "--link", "torus:5,10", "--n", "3", "--compare"], "isomorphic=true"),
        (["quiver", "--link", "torus:5,10", "--n", "3", "--format", "json"], '"q": 10'),
        (["quiver", "--link", "torus:5,10", "--n", "3", "--collapse"], "digraph"),
        (["verify", "--p", "5", "--q", "0..10", "--n", "2..4"], "33 cells: 33 match"),
    ],
    ids=["linear", "oracle", "all", "compare", "json", "collapse", "verify"],
)
def test_no_route_expands_the_torus_word(argv, out, monkeypatch, capsys):
    refuse_torus_word(monkeypatch)
    assert main(argv) == EXIT_OK
    assert out in capsys.readouterr().out


@pytest.mark.parametrize("q", [999_999_999, 10**18 + 5])
def test_huge_q_answers_on_every_backend(q, monkeypatch, capsys):
    # q = 3 mod 6 for both: the half-period cell of T(3, q)
    refuse_torus_word(monkeypatch)
    link = f"torus:3,{q}"
    half = " case=half-period"
    for backend, case in (("formula", half), ("linear", ""), ("oracle", ""), ("all", half)):
        assert main(["count", "--link", link, "--n", "3,4", "--backend", backend]) == EXIT_OK
        assert capsys.readouterr().out == f"{link} n=3: N=3{case} [ok]\n{link} n=4: N=16{case} [ok]\n"
    assert main(["quiver", "--link", link, "--n", "3", "--compare"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("isomorphic=true\n")


def test_count_oracle_cap_reads_the_torus_strands_from_p(monkeypatch, capsys):
    refuse_torus_word(monkeypatch)

    def no_table(n):
        raise AssertionError(f"R_{n} built before the oracle cap check")

    monkeypatch.setattr(counting, "DihedralQuandle", no_table)
    for backend in ("oracle", "all"):
        code = main(
            ["count", "--link", "torus:5,7", "--n", "17", "--backend", backend, "--oracle-cap", "100"]
        )
        assert code == EXIT_CAP
        assert "17^5 = 1419857" in capsys.readouterr().err


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


def test_huge_oracle_count_ends_in_one_short_line(capsys):
    # 5^200000 has about 140000 digits; it is named, not written out
    code = main(["count", "--link", "torus:200000,2", "--n", "5", "--backend", "oracle"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err == "count: 5^200000 candidate tops exceed the oracle cap 10000000\n"


def test_huge_brute_force_search_space_ends_in_one_short_line(capsys):
    code = main(["quiver", "--link", "torus:3,1", "--n", "1500", "--endos", "brute"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.err == "quiver: brute-force search space 1500^1500 exceeds the cap 1000000\n"


@pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3])
def test_formula_answers_a_huge_prime_p(p, capsys):
    code = main(["count", "--link", f"torus:{p},2", "--n", "5", "--backend", "formula"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == f"torus:{p},2 n=5: N=5 case=gcd-even [ok]\n"


def test_count_oracle_cap_is_checked_before_any_row(monkeypatch, tmp_path, capsys):
    # 11**5 is the first modulus over the cap; no oracle runs, no row is printed
    def fail(*args):
        raise AssertionError("oracle ran before the cap check")

    monkeypatch.setattr(colorings, "_window_steps", fail)
    path = tmp_path / "counts.json"
    code = main(
        ["count", "--link", "torus:5,2", "--n", "2..12", "--backend", "all",
         "--oracle-cap", "100000", "--json", str(path)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "12^5 = 248832" in captured.err
    assert not path.exists()


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


def test_quiver_over_enumeration_cap_exits_4(tmp_path, capsys):
    path = tmp_path / "q.dot"
    code = main(["quiver", "--link", "torus:5,0", "--n", "9", "--enum-cap", "100", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err == "quiver: 59049 colorings exceed the enumeration cap\n"
    assert not path.exists()


def test_quiver_cap_is_checked_before_the_quandle_is_built(capsys):
    code = main(["quiver", "--link", "torus:3,2", "--n", "99999999999999999999"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err == "quiver: 299999999999999999997 colorings exceed the enumeration cap\n"


def random_word_text(strands, length, seed) -> str:
    rng = random.Random(seed)
    letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
    return " ".join(("-" if l < 0 else "") + f"s{abs(l)}" for l in letters)


@pytest.mark.parametrize(
    "strands, length, seed, counts",
    [
        (16, 200, 1, [16, 27, 32, 5, 432, 49, 64, 81, 80, 11, 864]),
        (24, 400, 0, [256, 27, 8192, 5, 6912, 7, 131072, 81, 1280, 121, 221184]),
    ],
)
def test_count_long_random_word_linear(strands, length, seed, counts, time_limit, tmp_path, capsys):
    # the pinned counts come from an independent valuation-pivot elimination;
    # an exact-integer Smith form of the 24x400 word does not finish
    time_limit(20)
    path = tmp_path / "counts.json"
    code = main(["count", "--link", random_word_text(strands, length, seed), "--n", "2..12",
                 "--backend", "linear", "--json", str(path)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert [r["count"] for r in json.loads(path.read_text())] == counts


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


def test_cli_import_leaves_the_process_pool_unloaded():
    # only verify --jobs above 1 uses a process pool, so only it pays the import
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quandlequiver.cli; "
         "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        cwd=Path(quandlequiver.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


PAST_PRIMALITY_BOUND = 3317044064679887385961981

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
    # caps and --jobs follow the rule of the cap variables: at least 1
    (["quiver", "--link", "torus:5,2", "--n", "5", "--enum-cap", "0"], {}),
    (["quiver", "--link", "torus:5,2", "--n", "5", "--enum-cap", "-1"], {}),
    (["count", "--link", "torus:5,2", "--n", "5", "--oracle-cap", "0"], {}),
    (["count", "--link", "torus:5,2", "--n", "5", "--oracle-cap", "-1"], {}),
    (["verify", "--p", "3", "--q", "2", "--n", "3", "--oracle-cap", "-1"], {}),
    (["verify", "--p", "3", "--q", "2", "--n", "3", "--jobs", "0"], {}),
    (["verify", "--p", "3", "--q", "2", "--n", "3", "--jobs", "-1"], {}),
    # --no-loops applies to full DOT only
    (["quiver", "--link", "torus:5,2", "--n", "5", "--no-loops", "--format", "json"], {}),
    (["quiver", "--link", "torus:5,2", "--n", "5", "--no-loops", "--collapse"], {}),
    # an output path in a directory that does not exist
    (["quiver", "--link", "torus:3,3", "--n", "3", "--out", "no-such-dir/x.dot"], {}),
    (["count", "--link", "torus:3,3", "--n", "3", "--json", "no-such-dir/x.json"], {}),
    (["verify", "--p", "3", "--q", "2", "--n", "3", "--out", "no-such-dir/x.json"], {}),
    (["verify", "--p", "3", "--q", "2", "--n", "3", "--csv", "no-such-dir/x.csv"], {}),
    # a p at or past the bound below which primality is decided
    (["count", "--link", f"torus:{PAST_PRIMALITY_BOUND},2", "--n", "5", "--backend", "formula"], {}),
    (["count", "--link", f"torus:{PAST_PRIMALITY_BOUND},2", "--n", "5"], {}),
    (["quiver", "--link", f"torus:{PAST_PRIMALITY_BOUND},2", "--n", "5", "--compare"], {}),
    (["verify", "--p", str(PAST_PRIMALITY_BOUND), "--q", "2", "--n", "3"], {}),
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
        ["quiver", "--link", "torus:5,2", "--n", "5", "--no-loops", "--format", "json"],
        ["quiver", "--link", "torus:5,2", "--n", "5", "--no-loops", "--collapse"],
        ["quiver", "--link", "torus:5,2", "--n", "5", "--out", "no-such-dir/x.dot"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--link", "torus:5,2", "--n", "5", "--json", "no-such-dir/x.json"],
        ["verify", "--p", "3", "--q", "2", "--n", "3", "--csv", "no-such-dir/x.csv"],
    ],
)
def test_output_directory_checked_before_any_work(argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a rejected request")

    monkeypatch.setattr(cli, "evaluate_cells", no_work)
    monkeypatch.setattr(cli, "verify_counts", no_work)
    assert main(argv) == EXIT_MISMATCH
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--link", "torus:5,2", "--n", "5", "--json"],
        ["quiver", "--link", "torus:5,2", "--n", "5", "--out"],
        ["verify", "--p", "3", "--q", "0..2", "--n", "2..3", "--out"],
        ["verify", "--p", "3", "--q", "0..2", "--n", "2..3", "--csv"],
    ],
)
def test_output_path_naming_a_directory_is_rejected_before_any_work(
    argv, tmp_path, monkeypatch, capsys
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a rejected request")

    for name in ("evaluate_cells", "verify_counts", "enumerate_colorings_linear"):
        monkeypatch.setattr(cli, name, no_work)
    code = main(argv + [str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_failed_write_ends_in_one_line(capsys):
    # the path passes the checks before work, but every write to it fails
    # (ENOSPC); a path naming a directory is rejected before any work instead
    code = main(["quiver", "--link", "torus:3,3", "--n", "3", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert captured.out == ""
    assert captured.err.startswith("quiver: cannot write ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("n", ["2..3", "2..3000"])
def test_closed_stdout_ends_in_one_line(n):
    # the pipe's read end is closed before the process starts, so every
    # write to stdout fails: small output at the final flush, large output
    # inside the row loop; -X dev would also print an unclosed-file warning
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "quandlequiver", "count", "--link", "torus:5,4",
             "--n", n, "--backend", "formula"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(quandlequiver.__file__).parents[1],
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_MISMATCH
    assert proc.stderr == "count: cannot write to stdout: broken pipe\n"


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

    real = counting.oracle_counts

    def off_by_one(*args, **kwargs):
        return {k: count + 1 for k, count in real(*args, **kwargs).items()}

    monkeypatch.setattr(counting, "oracle_counts", off_by_one)
    code = main(["count", "--link", "torus:5,4", "--n", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_MISMATCH
    assert captured.out == ""
    assert captured.err == "count: backend disagreement for n=3: formula=3, linear=3, oracle=4\n"


DIFF_CAP = 10**6  # keeps the 7^8- and 7^9-state oracle cells (4 s and 10 s) out of the suite


@settings(max_examples=25)
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
        rows = json.loads(Path(path).read_text()) if code != EXIT_CAP else []
    if n**p > DIFF_CAP:
        # count refuses the oracle above its cap; verify checks the cell linearly
        assert code == EXIT_CAP and record.computed_oracle is None
        return
    [row] = rows
    assert row["count"] == record.computed
    assert row["status"] == ("ok" if record.status == STATUS_MATCH else record.status)


def test_parser_is_built_at_the_first_call_not_at_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import quandlequiver.cli as cli; "
         "print(cli.build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        cwd=Path(quandlequiver.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_second_call_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    argv = ["count", "--link", "torus:3,2", "--n", "2", "--backend", "formula"]
    assert main(argv) == EXIT_OK
    assert len(built) == 4  # the root parser and one per command
    assert main(argv) == EXIT_OK
    assert main(["verify", "--p", "3", "--q", "0..2", "--n", "2"]) == EXIT_OK
    assert len(built) == 4
    capsys.readouterr()


# a malformed command line, a good count, a malformed cap variable, a good count
CALL_SEQUENCE = [
    (["count", "--link", "torus:5,10", "--n", "3", "--bogus"], {}),
    (["count", "--link", "torus:5,10", "--n", "2..4"], {}),
    (["count", "--link", "torus:5,10", "--n", "2..4"], {"QUANDLEQUIVER_ORACLE_CAP": "ten"}),
    (["count", "--link", "torus:5,10", "--n", "2..4"], {}),
]


def test_calls_in_one_process_match_each_call_alone(monkeypatch, capsys):
    codes = []
    for argv, env in CALL_SEQUENCE:
        alone = subprocess.run(
            [sys.executable, "-m", "quandlequiver", *argv],
            capture_output=True,
            text=True,
            cwd=Path(quandlequiver.__file__).parents[1],
            env={**os.environ, **env},
        )
        with monkeypatch.context() as patch:
            for name, value in env.items():
                patch.setenv(name, value)
            code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (alone.returncode, alone.stdout, alone.stderr)
        codes.append(code)
    assert codes == [EXIT_MISMATCH, EXIT_OK, EXIT_MISMATCH, EXIT_OK]


def test_oracle_cap_flag_does_not_carry_into_the_next_call(capsys):
    # 4^5 = 1024 candidate tops: over a cap of 100, far under the default
    argv = ["count", "--link", "torus:5,2", "--n", "4", "--backend", "oracle"]
    assert main([*argv, "--oracle-cap", "100"]) == EXIT_CAP
    assert main(argv) == EXIT_OK
    assert main([*argv, "--oracle-cap", "100"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == "torus:5,2 n=4: N=4 [ok]\n"
    assert captured.err == "count: 4^5 = 1024 candidate tops exceed the oracle cap 100\n" * 2
