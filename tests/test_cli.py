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
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlequiver
from quandlequiver import braids, cli, colorings, counting, linalg, quivers
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
    it would allocate (p - 1) * q letters.  The links of these tests are
    all torus links, whose factor has p - 1 letters on p strands, so a word
    of p letters or more is one written out."""
    check = braids.BraidWord.__post_init__

    def refuse(word):
        if len(word.letters) >= word.strands:
            raise AssertionError("torus word built")
        check(word)

    monkeypatch.setattr(braids.BraidWord, "__post_init__", refuse)


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

    def no_walk(factor, r, powers):
        raise AssertionError(f"R_{r} walked before the oracle cap check")

    monkeypatch.setattr(counting, "oracle_counts", no_walk)
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


def test_a_count_too_long_to_write_ends_in_one_line(capsys):
    # 5^1000003 has about 700000 digits, past the interpreter's int -> str limit
    code = main(["count", "--link", "torus:1000003,0", "--n", "5", "--backend", "formula"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == (
        f"count: the count for n=5 has more than {limit} digits, "
        "the interpreter's limit for writing an integer in decimal\n"
    )


@pytest.mark.parametrize("backend", ["all", "oracle"])
def test_a_huge_strand_count_is_over_the_oracle_cap_before_any_work(backend, time_limit, capsys):
    # 5^p is past the cap by p's bit length: neither the power nor the
    # factor's p - 1 letters are built
    time_limit(5)
    p = 10**18 + 3
    code = main(["count", "--link", f"torus:{p},2", "--n", "5", "--backend", backend])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == ""
    assert captured.err == f"count: 5^{p} candidate tops exceed the oracle cap 10000000\n"


@pytest.mark.parametrize(
    "q, ns, out",
    [
        ("0", "3", ""),
        ("P", "2", ""),
        # n = 3 is odd, so its count is 3; n = 4's is 2^(p-1)*4
        ("P", "3..4", "torus:P,P n=3: N=3 case=half-period [ok]\n"),
    ],
)
def test_a_huge_prime_power_count_is_too_long_before_it_is_built(q, ns, out, time_limit, capsys):
    # n^p and 2^(p-1)*n, p about 10^18, are told too long by their bit
    # length, cell by cell, and never built
    time_limit(2)
    p = 10**18 + 3
    link = f"torus:{p},{p if q == 'P' else q}"
    code = main(["count", "--link", link, "--n", ns, "--backend", "formula"])
    captured = capsys.readouterr()
    assert code == EXIT_CAP
    assert captured.out == out.replace("P", str(p))
    n = ns.split("..")[-1]
    assert captured.err == (
        f"count: the count for n={n} has more than {sys.get_int_max_str_digits()} digits, "
        "the interpreter's limit for writing an integer in decimal\n"
    )


@pytest.mark.parametrize("limit, code", [(642, EXIT_OK), (641, EXIT_CAP)])
def test_a_count_at_the_digit_limit_still_prints(limit, code, capsys):
    # 10^641 has 642 digits
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert main(["count", "--link", "torus:641,0", "--n", "10", "--backend", "formula"]) == code
    finally:
        sys.set_int_max_str_digits(before)
    out = capsys.readouterr().out
    assert out == (f"torus:641,0 n=10: N={10**641} case=free [ok]\n" if code == EXIT_OK else "")


@pytest.mark.parametrize("link", ["torus:3,4", "torus:5,10", "torus:4,3", "s1 -s2 s1 s3 -s2 s2 s1 -s3"])
def test_count_oracle_equals_linear_on_every_modulus(link, capsys):
    # 6, 10, 12, 14 and 15 are counted from their prime power parts
    outputs = []
    for backend in ("oracle", "linear"):
        assert main(["count", "--link", link, "--n", "2..15", "--backend", backend]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 14


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
    monkeypatch.setattr(colorings, "_push", fail)
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
        ["quiver", "--link", "torus:3,4", "--n", "9", "--collapse"],
        ["quiver", "--link", "torus:5,10", "--n", "5", "--compare"],
        ["quiver", "--link", "torus:5,10", "--n", "5", "--format", "json"],
        ["quiver", "--link", "torus:3,4", "--n", "9"],
    ],
)
def test_quiver_compare_detects_blocks_once(argv, monkeypatch, tmp_path, capsys):
    # lattice_form is the one reader of blocks: the comparison and the
    # export share one call, and a full DOT makes none
    calls = []
    original = quivers.lattice_form

    def counted(coloring_set):
        calls.append(coloring_set.count)
        return original(coloring_set)

    for module in (quivers, cli):
        monkeypatch.setattr(module, "lattice_form", counted)
    code = main(argv + ["--out", str(tmp_path / "quiver.out")])
    assert code in (EXIT_OK, EXIT_AMBIGUOUS)
    if "--compare" in argv:
        assert capsys.readouterr().out.startswith("isomorphic=true")
    needs_blocks = "--compare" in argv or "--collapse" in argv or "json" in argv
    assert len(calls) == needs_blocks


@pytest.mark.parametrize(
    "link,n",
    [("s1 s1 s1", 3), ("torus:4,2", 4), ("torus:9,2", 3), ("torus:3,6", 6)],
)
def test_quiver_compare_answers_any_link_and_modulus(link, n, capsys):
    # a braid word, an even p, a composite p and a composite n with A = Z_6^2
    code = main(["quiver", "--link", link, "--n", str(n), "--compare"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert captured.out.startswith("isomorphic=true\n")


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


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["count", "--link", "s1 s1 s1", "--n", "9223372036854775837", "--backend", "linear"],
         EXIT_OK, "s1 s1 s1 n=9223372036854775837: N=9223372036854775837 [ok]\n"),
        (["verify", "--p", "3", "--q", "0..2", "--n", "9223372036854775837"],
         EXIT_OK, "3 cells: 3 match, 0 ambiguous-resolved, 0 mismatch\n"),
        (["quiver", "--link", "s1 s1 s1", "--n", "18446744073709551557"], EXIT_CAP, ""),
    ],
    ids=["count", "verify", "quiver"],
)
def test_moduli_past_2_to_the_63_end_without_a_traceback(argv, code, out, capsys):
    # the Smith form's checks compare exact ints, so a correct form mod a
    # modulus past 2**63 passes them
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out.endswith(out)
    if code == EXIT_CAP:
        assert captured.err == "quiver: 18446744073709551557 colorings exceed the enumeration cap\n"


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


def test_verify_clean_grid_exits_0(capsys):
    code = main(["verify", "--p", "5", "--q", "1,3", "--n", "2..4", "--oracle-cap", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "6 cells: 6 match, 0 ambiguous-resolved, 0 mismatch" in out


def test_a_count_never_builds_v(monkeypatch, capsys):
    # count and verify read only the Smith form's diagonal; V's deferred
    # column operations run only for an enumeration
    def refuse(*args):
        raise AssertionError("V was built")

    monkeypatch.setattr(linalg, "_right_transform", refuse)
    with pytest.raises(AssertionError, match="V was built"):
        linalg.smith_normal_form([[1, 2], [3, 4]], 6).right
    for argv in (
        ["count", "--link", "s1 s2 -s1 s3 s2 s2 -s3", "--n", "2..9", "--backend", "linear"],
        ["count", "--link", "s1 -s2 s1 s3", "--n", "2..4", "--backend", "all"],
        ["count", "--link", "torus:7,4", "--n", "2..12", "--backend", "linear"],
        ["count", "--link", "torus:5,4", "--n", "2..9"],
        ["verify", "--p", "3,5,7", "--q", "0..14", "--n", "2..9", "--oracle-cap", "1"],
    ):
        assert main(argv) in (EXIT_OK, EXIT_AMBIGUOUS), argv
    assert capsys.readouterr().err == ""


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
    # verify runs in one process whatever --jobs says: neither the import
    # nor a verify run with --jobs 2 loads a process pool
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quandlequiver.cli; "
         "pool = {'concurrent.futures.process', 'multiprocessing'}; "
         "print(sorted(pool & set(sys.modules))); "
         "quandlequiver.cli.main(['verify', '--p', '3,5', '--q', '0..3', '--n', '2,3', '--jobs', '2']); "
         "print(sorted(pool & set(sys.modules)))"],
        capture_output=True,
        text=True,
        cwd=Path(quandlequiver.__file__).parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert lines[1].startswith("16 cells: ")


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
    # an integer is an optional ASCII sign and ASCII digits (config.integer)
    (["count", "--link", "torus:３,2", "--n", "3"], {}),
    (["count", "--link", "torus:1_0,2", "--n", "3"], {}),
    (["count", "--link", "torus:3,2", "--n", "３"], {}),
    (["count", "--link", "torus:3,2", "--n", "1_0"], {}),
    (["verify", "--p", "3", "--q", "０..1", "--n", "2"], {}),
    (["quiver", "--link", "torus:3,2", "--n", "３"], {}),
    # a p at or past the bound below which primality is decided
    (["count", "--link", f"torus:{PAST_PRIMALITY_BOUND},2", "--n", "5", "--backend", "formula"], {}),
    (["count", "--link", f"torus:{PAST_PRIMALITY_BOUND},2", "--n", "5"], {}),
    (["quiver", "--link", f"torus:{PAST_PRIMALITY_BOUND},2", "--n", "5", "--compare"], {}),
    (["verify", "--p", str(PAST_PRIMALITY_BOUND), "--q", "2", "--n", "3"], {}),
    # an unknown option, reported under its command's name; the affine maps
    # are the only endomorphism family, so there is no option to pick one
    (["quiver", "--link", "torus:2,3", "--n", "3", "--endos", "brute"], {}),
    (["count", "--link", "torus:2,3", "--n", "3", "--bogus"], {}),
    (["verify", "--p", "3", "--q", "2", "--n", "3", "--bogus"], {}),
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
        ["quiver", "--link", f"torus:{PAST_PRIMALITY_BOUND},2", "--n", "5", "--compare"],
        ["quiver", "--link", "torus:5,2", "--n", "1", "--compare"],
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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["count", "--link", "torus:x,2", "--n", "3"], "count: expected torus:p,q, got 'torus:x,2'"),
        (["count", "--link", "torus:-3,2", "--n", "3"], "count: p must be at least 2, got -3"),
        (["count", "--link", "torus:3,2", "--n=-2"], "count: n must be at least 2, got -2"),
        (["quiver", "--link", "torus:3,2", "--n=-2"], "quiver: n must be at least 2, got -2"),
        (["quiver", "--link", "torus:3,2", "--n", "1_0"], "quiver: argument --n: must be an integer, got '1_0'"),
    ],
)
def test_integer_request_messages(argv, message, capsys):
    assert main(argv) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")


def test_integers_with_sign_or_spaces_are_read_as_before(capsys):
    def rows(link, n):
        main(["count", "--link", link, "--n", n])
        return capsys.readouterr().out.replace(link, "LINK")

    expected = rows("torus:3,2", "2..3")
    assert rows("torus:+3,2", "2..3") == rows("torus:3, 2", "2..3") == expected
    assert rows("torus:3,2", " 2 .. 3") == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--link", "torus:5,2", "--n", "5", "--json"],
        ["quiver", "--link", "torus:5,2", "--n", "5", "--out"],
        ["verify", "--p", "3", "--q", "0..2", "--n", "2..3", "--out"],
        ["verify", "--p", "3", "--q", "0..2", "--n", "2..3", "--csv"],
    ],
)
def test_empty_output_path_is_rejected_before_any_work(argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started for a rejected request")

    for name in ("evaluate_cells", "verify_counts", "enumerate_colorings_linear"):
        monkeypatch.setattr(cli, name, no_work)
    assert main(argv + [""]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{argv[0]}: {argv[-1]}: empty output path\n")


class RecordingWriter:
    """A text stream that records the length of each write it passes on."""

    def __init__(self, stream, sizes):
        self.stream, self.sizes = stream, sizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()

    def write(self, text):
        self.sizes.append(len(text))
        return self.stream.write(text)


def test_write_goes_out_a_chunk_at_a_time(monkeypatch, tmp_path):
    # each chunk is one write, as it comes: no output is joined whole
    chunks = ["é→q\n" * k for k in (3, 1, 7)] + ["→"]
    sizes = []
    monkeypatch.setattr(cli, "open", lambda *a, **k: RecordingWriter(open(*a, **k), sizes),
                        raising=False)
    path = tmp_path / "out.txt"
    cli._write(str(path), iter(chunks))
    assert sizes == [len(chunk) for chunk in chunks]
    assert path.read_bytes() == "".join(chunks).encode("utf-8")

    sizes.clear()
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", RecordingWriter(stdout, sizes))
    cli._write(None, iter(chunks))
    assert sizes == [len(chunk) for chunk in chunks]
    assert stdout.getvalue() == "".join(chunks)


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("flags", [["--format", "json"], ["--no-loops"]])
def test_quiver_output_is_never_held_whole(flags, tmp_path):
    # T(5,10) by R_5: the 2-4 MB text goes out a chunk at a time, and the
    # quiver holds one row per translation class, so the command peaks at
    # the writer's tables and one chunk beside the colorings: 1.4-1.5 MiB,
    # where spreading the rows over every vertex took 2.7 MiB
    path = str(tmp_path / "quiver.out")
    argv = ["quiver", "--link", "torus:5,10", "--n", "5", *flags, "--out", path]
    assert main(["quiver", "--link", "torus:3,3", "--n", "3", *flags, "--out", path]) == EXIT_OK
    peak = _traced_peak(lambda: main(argv))
    size = os.path.getsize(path)
    assert size > 2 * 10**6
    assert peak < 2 * 2**20
    assert peak < 0.75 * size


def test_quiver_compare_peak_memory(capsys):
    # T(5,10) by R_7, N = 16,807 and E = 823,249: the build and the
    # comparison read one stored row per translation class, E/n arrows,
    # and the DOT goes out a chunk at a time.  7.7 MiB measured, where
    # building and comparing every vertex's row took 33.4 MiB
    argv = ["quiver", "--link", "torus:5,10", "--n", "7", "--compare", "--out", os.devnull]
    assert main(["quiver", "--link", "torus:3,3", "--n", "3", "--compare", "--out", os.devnull]) == EXIT_OK
    peak = _traced_peak(lambda: main(argv))
    assert capsys.readouterr().out == "isomorphic=true\nisomorphic=true\n"
    assert peak < 12 * 2**20


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


@pytest.mark.parametrize("word", ["s1 s1", "s1 s1 s1", "s1 -s2 s1 -s2", "s2 s1 s2 -s1 s3 s2"])
def test_stabilization_keeps_each_printed_count(word, capsys):
    # Markov stabilization, w -> w s_k or w -s_k with k = w's strand count,
    # closes to the same link on k + 1 strands, so each route prints the
    # same N for every n
    k = braids.parse_link(word).strands
    for backend in ("linear", "oracle"):
        printed = set()
        for link in (word, f"{word} s{k}", f"{word} -s{k}"):
            assert main(["count", "--link", link, "--n", "2..7", "--backend", backend]) == EXIT_OK
            heads, counts = zip(*(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()))
            assert heads == tuple(f"{link} n={n}" for n in range(2, 8))
            printed.add(counts)
        assert len(printed) == 1, (word, backend, printed)


def test_a_word_has_its_largest_letter_plus_one_strands(capsys):
    # "s1 s1" is the Hopf link on 2 strands, with 3 colorings by R_3; read on
    # 3 strands it would close to the Hopf link and an unknot, with 9
    assert braids.parse_link("s1 s1").strands == 2
    assert braids.parse_link("s1 -s3").strands == 4
    for backend in ("linear", "oracle"):
        assert main(["count", "--link", "s1 s1", "--n", "3", "--backend", backend]) == EXIT_OK
        assert capsys.readouterr().out == "s1 s1 n=3: N=3 [ok]\n"
