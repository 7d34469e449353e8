"""Tests for DOT, JSON, and CSV export: exact formats and determinism."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quandlequiver.braids import TorusLinkSpec, torus_braid
from quandlequiver.colorings import enumerate_colorings_linear, enumerate_colorings_oracle
from quandlequiver.counting import predict_count, verify_counts
from quandlequiver.export import (
    CSV_HEADER,
    ExportOptions,
    quiver_from_json,
    quiver_to_dict,
    to_csv,
    to_dot,
    to_json,
)
from quandlequiver.quandles import DihedralQuandle, affine_endomorphisms
from quandlequiver.quivers import (
    WeightedQuiver,
    build_quiver,
    complete_form,
    quiver_form_for_count,
    realize,
)


def torus_quiver(p, q, n):
    cs = enumerate_colorings_oracle(torus_braid(p, q), DihedralQuandle(n))
    return build_quiver(cs, affine_endomorphisms(n))


def test_dot_full_complete_2():
    text = to_dot(realize(complete_form(2, 2)))
    assert text.startswith("digraph quiver {")
    assert text.rstrip().endswith("}")
    assert '  v0 -> v0 [label="2"];' in text
    assert '  v0 -> v1 [label="2"];' in text
    assert '  v1 -> v0 [label="2"];' in text
    assert '  v1 -> v1 [label="2"];' in text
    assert text.count("->") == 4
    assert text.endswith("\n")


def test_dot_without_loops():
    text = to_dot(realize(complete_form(2, 2)), ExportOptions(include_loops=False))
    assert "v0 -> v0" not in text
    assert "v1 -> v1" not in text
    assert text.count("->") == 2


def test_dot_collapsed_torus_5_2():
    text = to_dot(torus_quiver(5, 2, 5), ExportOptions(collapse_blocks=True))
    assert 'b0 [label="K5 w=5"];' in text
    assert 'b1 [label="K20 w=1"];' in text
    assert 'b1 -> b0 [label="1"];' in text
    assert text.count("->") == 1


def test_dot_collapsed_torus_5_5():
    text = to_dot(torus_quiver(5, 5, 6), ExportOptions(collapse_blocks=True))
    assert text.count("[label=\"K6") == 16
    assert text.count("->") == 15


def test_dot_vertex_labels_are_colorings():
    quiver = torus_quiver(2, 3, 3)
    text = to_dot(quiver)
    assert 'v0 [label="0,0"];' in text
    assert 'v8 [label="2,2"];' in text


def test_quiver_json_round_trip():
    quiver = torus_quiver(5, 2, 5)
    again = quiver_from_json(to_json(quiver))
    assert again == quiver


def test_quiver_json_round_trip_without_labels():
    quiver = realize(quiver_form_for_count(5, 6, 96))
    assert quiver_from_json(to_json(quiver)) == quiver


def test_quiver_json_key_order_and_fields():
    quiver = torus_quiver(5, 2, 5)
    d = quiver_to_dict(quiver, params={"p": 5, "q": 2, "n": 5})
    assert list(d) == ["params", "count", "colorings", "weights", "blocks"]
    assert d["count"] == 25
    assert len(d["weights"]) == len(quiver.weight_triples())
    assert d["weights"] == sorted(d["weights"])
    assert d["blocks"]["blocks"] == [{"size": 5, "weight": 5}, {"size": 20, "weight": 1}]
    assert d["blocks"]["cross"] == [[1, 0, 1]]


def test_empty_quiver_dict():
    assert quiver_to_dict(WeightedQuiver(0)) == {"count": 0, "weights": []}


def test_json_ends_with_newline_and_is_deterministic():
    quiver = torus_quiver(5, 2, 5)
    first = to_json(quiver)
    second = to_json(torus_quiver(5, 2, 5))
    assert first == second
    assert first.endswith("\n")
    json.loads(first)


def test_coloring_set_and_prediction_dicts():
    cs = enumerate_colorings_oracle(torus_braid(2, 3), DihedralQuandle(3))
    assert cs.count == 9
    assert cs.colorings[0] == (0, 0)
    pd = predict_count(5, 2, 5)
    assert pd.case == "ambiguous"
    assert pd.predicted == [5, 25]
    assert predict_count(5, 10, 4).predicted == 1024


def test_report_json_round_trip():
    report = verify_counts([5], [2, 3], [5, 6], cap=1)
    parsed = json.loads(to_json(report))
    assert parsed == [rec.to_dict() for rec in report]


def test_csv_format():
    report = verify_counts([5], [2], [5, 6], cap=1)
    text = to_csv(report)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "p,q,n,predicted,case,computed,status"
    assert lines[1] == "5,2,5,5|25,ambiguous,25,ambiguous-resolved"
    assert lines[2] == "5,2,6,6,gcd-even,6,match"
    assert text.endswith("\n")


def test_csv_rows_sorted_by_cell():
    report = verify_counts([3, 5], [2, 4], [3, 2], cap=1)
    text = to_csv(report)
    cells = [tuple(map(int, line.split(",")[:3])) for line in text.splitlines()[1:]]
    assert cells == sorted(cells)


def test_csv_deterministic_bytes():
    a = to_csv(verify_counts([5], range(0, 11), range(2, 8), cap=1))
    b = to_csv(verify_counts([5], range(0, 11), range(2, 8), cap=1))
    assert a == b


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 10), st.integers(2, 9))
def test_json_round_trip_on_torus_quivers(p, q, n):
    coloring_set = enumerate_colorings_linear(TorusLinkSpec(p, q), n, cap=500)
    assume(coloring_set.colorings is not None)
    quiver = build_quiver(coloring_set, affine_endomorphisms(n))
    assert quiver.labels == coloring_set.colorings
    assert quiver_from_json(to_json(quiver, params={"p": p, "q": q, "n": n})) == quiver
