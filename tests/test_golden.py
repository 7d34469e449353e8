"""Byte-identity of CLI output: sha256 digests of stdout and output files.

The digests of `count` and `verify` output were recorded from the program
before those commands were routed through one cell evaluator, and those of
the block exports (collapsed DOT, JSON `blocks`) before block detection
checked uniformity by row tallies, those of the p = 7 verify grid
before the oracle counted fixed points of a power of a state map, and
those of the R_30 comparison and the N = 3125 JSON export before the
quiver was built by key search and refined over edge arrays, the
braid-word JSON, loop-free DOT and N = 2187 exports before the quiver
was held as CSR arrays and written by chunked templates, and the count of
an aperiodic 6-strand word before the oracle applied its factor by
window tables, and those of the benchmark's p = 3, 5, 7 verify sweep
before verify walked each factor once for its whole q range, and the
R_14 JSON and the N = 3125 loop-free DOT before the quiver held one
stored row per translation class; any
change to these bytes is a change of the documented output, not a
refactor.
"""

import hashlib

import pytest

from quandlequiver.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


APERIODIC_WORD = (
    "s3 -s1 s5 -s2 -s4 -s5 -s5 -s4 -s3 -s2 -s5 -s2 -s2 -s5 -s1 s4 -s2 s3 "
    "-s4 s5 -s2 -s5 s4 -s2 -s2 s4 -s5 -s3 -s2 s1 s4 -s2 -s4 -s3 -s1 s5"
)

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
        # the benchmark sweep: every oracle cell of p = 3, 5, 7 over q = 0..14
        ["verify", "--p", "3,5,7", "--q", "0..14", "--n", "2..9", "--oracle-cap", "1000000",
         "--jobs", "1", "--csv", "{out}/sweep.csv", "--out", "{out}/sweep.json"],
        3,
        "aca9b4b5f8305339f5212f6e01145df0e73a0bfbc2308775acc95d9a087b0513",
        {
            "sweep.csv": "c26c3f54aeb6f91ba3641eada8bab6c6c8335416bab85b3856be4375f2a555e2",
            "sweep.json": "2ddbea5cdea936e03559cd8505d967dc3a7f2b3d16a7ccad1e58900055fb3b9b",
        },
    ),
    (
        # a 36-letter aperiodic 6-strand word, every route
        ["count", "--link", APERIODIC_WORD, "--n", "2..10", "--backend", "all"],
        0,
        "a70944b048856da69b9fac89228c4525b13bbf3bae15e72cebbb67cc82673686",
        {},
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
    (
        # R_30: 900 affine endomorphisms
        ["quiver", "--link", "torus:5,5", "--n", "30", "--compare", "--out", "{out}/r30.dot"],
        0,
        "087da7dc05ef9f80559ddf63b3b2287bc690f183beaf63e1ba09656c4000ae0b",
        {"r30.dot": "67a53022742acb81ad8d2da55f58229b6cad947a1434e64b46b7ea75f98bd5d6"},
    ),
    (
        # N = 3125
        ["quiver", "--link", "torus:5,10", "--n", "5", "--format", "json", "--out", "{out}/t5_10.json"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {"t5_10.json": "fc5c3d517bea925df031b8a4e0bffef30b61d6aacbcb1b261ee1e8fa8c520276"},
    ),
    (
        # braid-word params: {"n": 5} only
        ["quiver", "--link", "s1 -s2 s1 -s2", "--n", "5", "--format", "json"],
        0,
        "066d05c755e325d6281f824ee2d693d6c0512a37e5f9fa576b3d565061fbf300",
        {},
    ),
    (
        ["quiver", "--link", "torus:5,2", "--n", "5", "--no-loops"],
        0,
        "18dfc25b85c6e1695d1d5218be72833f30999ec0ae24a7336dae93b39a7f6d8d",
        {},
    ),
    (
        # N = 2187
        ["quiver", "--link", "torus:7,14", "--n", "3", "--format", "json", "--out", "{out}/t7_14.json"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {"t7_14.json": "9479c30f356627de3489e4131ac83465e78bf02d873e1bd6d53a330f167d3392"},
    ),
    (
        ["quiver", "--link", "torus:7,14", "--n", "3", "--collapse", "--out", "{out}/t7_14.dot"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {"t7_14.dot": "cfbb446bc7d1c8627da132404e41101e3cfcf1d3e59607e73ab9575066ee0646"},
    ),
    (
        # block sizes 14 and 84: a column tabled by its distinct values
        ["quiver", "--link", "torus:7,2", "--n", "14", "--format", "json"],
        0,
        "e553430e1b9aba692de5d10cc9dad2fec419e48db7f677134b3b9988b455d429",
        {},
    ),
    (
        # N = 3125 without loops: many chunks, each with its loops dropped
        ["quiver", "--link", "torus:5,10", "--n", "5", "--no-loops", "--out", "{out}/t5_10.dot"],
        0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {"t5_10.dot": "1bd874ffbfe7232b527c2a8f4a60e06b831cbc8a1d632233bf220af8f9a0c577"},
    ),
]


@pytest.mark.parametrize(
    "argv,exit_code,stdout,files",
    GOLDEN,
    ids=["count_torus", "count_word", "verify", "verify_p7", "verify_sweep", "count_aperiodic_word", "quiver_json",
         "quiver_collapse", "quiver_json_blocks", "quiver_compare_r30", "quiver_json_n3125", "quiver_json_word",
         "quiver_dot_no_loops", "quiver_json_n2187", "quiver_collapse_n2187",
         "quiver_json_distinct_sizes", "quiver_dot_no_loops_n3125"],
)
def test_output_bytes_unchanged(argv, exit_code, stdout, files, tmp_path, capsys):
    code = main([a.replace("{out}", str(tmp_path)) for a in argv])
    assert code == exit_code
    assert sha256(capsys.readouterr().out.encode("utf-8")) == stdout
    for name, digest in files.items():
        assert sha256((tmp_path / name).read_bytes()) == digest
