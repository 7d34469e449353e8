"""Byte-identity of CLI output: sha256 digests of stdout and output files.

The digests of `count` and `verify` output were recorded from the program
before those commands were routed through one cell evaluator, and those of
the block exports (collapsed DOT, JSON `blocks`) before block detection
checked uniformity by row tallies, and those of the p = 7 verify grid
before the oracle counted fixed points of a power of a state map; any
change to these bytes is a change of the documented output, not a
refactor.
"""

import hashlib

import pytest

from quandlequiver.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (argv, exit code, stdout digest, {output file: digest}); {out} is a scratch directory
GOLDEN = [
    (
        ["count", "--link", "torus:5,4", "--n", "2..9"],
        3,
        "f70fe7c7edf583e01ea07844fe25dc278914ce5b3894c9d24737b45dc7ce6fb6",
        {},
    ),
    (
        ["count", "--link", "s1 -s2 s1 -s2", "--n", "2..9"],
        0,
        "47a1f55578e7dc3de9c40be6988e2356f36be240b7450c1a5754b339405442ac",
        {},
    ),
    (
        ["verify", "--p", "3,5", "--q", "0..10", "--n", "2..9", "--oracle-cap", "100000",
         "--csv", "{out}/report.csv", "--out", "{out}/report.json"],
        3,
        "751bc9fa75adbb63aefd27a4cc988d9e15bc5f9130dd80abdba3757752fb1ec0",
        {
            "report.csv": "48fd89699362ab507a54869ca750c5e58aef975982aa0e7eada0f1d60687d2a2",
            "report.json": "8b879a3f4c334c311a5c9db188a7f2f1cb3fb351b34cc4098efdee95b413c765",
        },
    ),
    (
        # every 7^7-state oracle cell of the criterion-5 grid
        ["verify", "--p", "7", "--q", "0..14", "--n", "2..7", "--oracle-cap", "1000000",
         "--csv", "{out}/p7.csv", "--out", "{out}/p7.json"],
        3,
        "9887d6efc73b13c11b43185b82b0c6f1911c5a626fa872752ed2e48f8b0dbfae",
        {
            "p7.csv": "0861b53b8ef83c158fa42722055f9128e1c792b3f3ab92282ccfc392947b72b8",
            "p7.json": "3008352aaa28c3d074615b5faa8596149b3acfb7e1483999d2486f3f365bab28",
        },
    ),
    (
        ["quiver", "--link", "torus:5,2", "--n", "5", "--format", "json"],
        0,
        "2f821836cf4e84721604ef4fa71b2d8ad35192ca3888470091f65de747384c41",
        {},
    ),
    (
        ["quiver", "--link", "torus:3,4", "--n", "9", "--collapse"],
        0,
        "c744e081db7754c9024e17fce914ecd662ab8f418437b16367a687aa45ad6f7c",
        {},
    ),
    (
        # 64 blocks: K8(w8) joined from 63 blocks K8(w4)
        ["quiver", "--link", "torus:7,7", "--n", "8", "--format", "json"],
        0,
        "ad5209604f0482c21558b459443ddf08988e1b15e05575912fae035fadab5615",
        {},
    ),
]


@pytest.mark.parametrize(
    "argv,exit_code,stdout,files",
    GOLDEN,
    ids=["count_torus", "count_word", "verify", "verify_p7", "quiver_json", "quiver_collapse", "quiver_json_blocks"],
)
def test_output_bytes_unchanged(argv, exit_code, stdout, files, tmp_path, capsys):
    code = main([a.replace("{out}", str(tmp_path)) for a in argv])
    assert code == exit_code
    assert sha256(capsys.readouterr().out.encode("utf-8")) == stdout
    for name, digest in files.items():
        assert sha256((tmp_path / name).read_bytes()) == digest
