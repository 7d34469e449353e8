"""Tests for DOT, JSON, and CSV export: exact formats and determinism."""

import hashlib
import json
import tracemalloc
from unittest import mock

import export_reference
import numpy as np
import pytest
from braid_reference import torus_braid
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from export_reference import quiver_from_json
from quiver_reference import from_arrows, quiver_form_for_count, realize, weight_triples

from quandlequiver.braids import TorusLinkSpec
from quandlequiver.colorings import enumerate_colorings_linear
from quandlequiver.counting import predict_count, verify_counts
from quandlequiver.errors import CapExceededError
from quandlequiver import export
from quandlequiver.export import CSV_HEADER, csv_chunks, dot_chunks, json_chunks
from quandlequiver.quivers import QuiverForm, WeightedQuiver, build_quiver, lattice_form


def dot_text(graph, **options):
    return "".join(dot_chunks(graph, **options))


def json_text(obj, **options):
    return "".join(json_chunks(obj, **options))


def csv_text(report):
    return "".join(csv_chunks(report))


def torus_quiver(p, q, n):
    """The quiver of T(p, q) by R_n and its lattice form."""
    cs = enumerate_colorings_linear(torus_braid(p, q), n)
    return build_quiver(cs), lattice_form(cs)[0]


def test_dot_full_complete_2():
    text = dot_text(realize(QuiverForm([2], [2])))
    assert text.startswith("digraph quiver {")
    assert text.rstrip().endswith("}")
    assert '  v0 -> v0 [label="2"];' in text
    assert '  v0 -> v1 [label="2"];' in text
    assert '  v1 -> v0 [label="2"];' in text
    assert '  v1 -> v1 [label="2"];' in text
    assert text.count("->") == 4
    assert text.endswith("\n")


def test_dot_without_loops():
    text = dot_text(realize(QuiverForm([2], [2])), include_loops=False)
    assert "v0 -> v0" not in text
    assert "v1 -> v1" not in text
    assert text.count("->") == 2


def test_dot_collapsed_torus_5_2():
    text = dot_text(torus_quiver(5, 2, 5)[1])
    assert 'b0 [label="K5 w=5"];' in text
    assert 'b1 [label="K20 w=1"];' in text
    assert 'b1 -> b0 [label="1"];' in text
    assert text.count("->") == 1


def test_dot_collapsed_torus_5_5():
    text = dot_text(torus_quiver(5, 5, 6)[1])
    assert text.count("[label=\"K6") == 16
    assert text.count("->") == 15


def test_dot_vertex_labels_are_colorings():
    quiver, _ = torus_quiver(2, 3, 3)
    text = dot_text(quiver)
    assert 'v0 [label="0,0"];' in text
    assert 'v8 [label="2,2"];' in text


def test_quiver_json_round_trip():
    quiver, form = torus_quiver(5, 2, 5)
    again = quiver_from_json(json_text(quiver, form=form))
    assert again == quiver


def test_quiver_json_round_trip_of_a_realized_form():
    # a quiver realized from a form labels each vertex by its index
    form = quiver_form_for_count(5, 6, 96)
    quiver = realize(form)
    assert quiver.labels.tolist() == [[v] for v in range(96)]
    assert quiver_from_json(json_text(quiver, form=form)) == quiver


def test_quiver_json_key_order_and_fields():
    quiver, form = torus_quiver(5, 2, 5)
    d = json.loads(json_text(quiver, form=form, params={"p": 5, "q": 2, "n": 5}))
    assert list(d) == ["params", "count", "colorings", "weights", "blocks"]
    assert d["count"] == 25
    assert len(d["weights"]) == len(weight_triples(quiver))
    assert d["weights"] == sorted(d["weights"])
    assert d["blocks"]["blocks"] == [{"size": 5, "weight": 5}, {"size": 20, "weight": 1}]
    assert d["blocks"]["cross"] == [[1, 0, 1]]


def test_empty_quiver_dict():
    empty = from_arrows(0, [], [], [])
    assert json.loads(json_text(empty, form=QuiverForm())) == {
        "count": 0,
        "colorings": [],
        "weights": [],
        "blocks": {"blocks": [], "cross": []},
    }


def test_writers_print_the_form_they_are_given():
    quiver, _ = torus_quiver(5, 2, 5)
    other = QuiverForm([20, 5], [1, 5], [(0, 1, 1)])
    assert json.loads(json_text(quiver, form=other))["blocks"]["blocks"][0] == {"size": 20, "weight": 1}
    assert dot_text(other).splitlines()[1] == '  b0 [label="K20 w=1"];'


def test_json_ends_with_newline_and_is_deterministic():
    quiver, form = torus_quiver(5, 2, 5)
    first = json_text(quiver, form=form)
    again, again_form = torus_quiver(5, 2, 5)
    second = json_text(again, form=again_form)
    assert first == second
    assert first.endswith("\n")
    json.loads(first)


def test_coloring_set_and_prediction_dicts():
    cs = enumerate_colorings_linear(torus_braid(2, 3), 3)
    assert cs.count == 9
    assert cs.colorings[0].tolist() == [0, 0]
    pd = predict_count(5, 2, 5)
    assert pd.case == "ambiguous"
    assert pd.predicted == [5, 25]
    assert predict_count(5, 10, 4).predicted == 1024


def test_report_json_round_trip():
    report = verify_counts([5], [2, 3], [5, 6], cap=1)
    parsed = json.loads(json_text(report))
    assert parsed == [rec.to_dict() for rec in report]


def test_csv_format():
    report = verify_counts([5], [2], [5, 6], cap=1)
    text = csv_text(report)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "p,q,n,predicted,case,computed,status"
    assert lines[1] == "5,2,5,5|25,ambiguous,25,ambiguous-resolved"
    assert lines[2] == "5,2,6,6,gcd-even,6,match"
    assert text.endswith("\n")


def test_csv_rows_sorted_by_cell():
    report = verify_counts([3, 5], [2, 4], [3, 2], cap=1)
    text = csv_text(report)
    cells = [tuple(map(int, line.split(",")[:3])) for line in text.splitlines()[1:]]
    assert cells == sorted(cells)


def test_csv_deterministic_bytes():
    a = csv_text(verify_counts([5], range(0, 11), range(2, 8), cap=1))
    b = csv_text(verify_counts([5], range(0, 11), range(2, 8), cap=1))
    assert a == b


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 10), st.integers(2, 9))
def test_json_round_trip_on_torus_quivers(p, q, n):
    try:
        coloring_set = enumerate_colorings_linear(TorusLinkSpec(p, q), n, cap=500)
    except CapExceededError:
        assume(False)
    quiver = build_quiver(coloring_set)
    form, _ = lattice_form(coloring_set)
    assert np.array_equal(quiver.labels, coloring_set.colorings)
    assert quiver_from_json(json_text(quiver, form=form, params={"p": p, "q": q, "n": n})) == quiver


_table = export._table


def _short_table(column, before, after):
    """`export._table`, checked to hold no more pieces than its column has values."""
    pieces, codes = _table(column, before, after)
    assert len(pieces) <= len(column)
    return pieces, codes


def shared_rows(n, rows, row, labels=None):
    """A quiver on n vertices, vertex v reading stored row row[v] of `rows`,
    each a list of (target, weight) pairs, and labelled labels[v], or (v,)
    when no labels are given, through the trusted constructor."""
    arrows = [sorted(pairs) for pairs in rows]
    indptr = np.cumsum([0, *map(len, arrows)])
    dst, weight = np.array([pair for pairs in arrows for pair in pairs], dtype=np.int64).reshape(-1, 2).T
    labels = np.arange(n) if labels is None else np.array(labels, dtype=np.int64)
    arrays = [np.array(row, dtype=np.int64), indptr, dst, weight, labels.reshape(n, -1)]
    for a in arrays:
        a.flags.writeable = False
    return WeightedQuiver(n, *arrays)


@st.composite
def random_quivers(draw):
    """Up to 12 vertices and 40 arrows, with drawn labels of one width
    (possibly 0) or each vertex's index: one stored row per vertex, or a
    drawn map of the vertices onto fewer stored rows, each of distinct
    targets."""
    n = draw(st.integers(0, 12))
    vertex = st.integers(0, max(n - 1, 0))
    labels = None
    if draw(st.booleans()):
        width = draw(st.integers(0, 3))
        colour = st.integers(0, 10**3)
        labels = draw(st.lists(st.tuples(*[colour] * width), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        k = draw(st.integers(1, n))
        pairs = st.dictionaries(vertex, st.integers(1, 3 * 10**4), max_size=min(n, 40 // k))
        rows = [list(draw(pairs).items()) for _ in range(k)]
        row = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        return shared_rows(n, rows, row, labels)
    triples = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 3 * 10**4)), max_size=40 if n else 0))
    src, dst, weight = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    return from_arrows(n, src, dst, weight, labels=labels)


@st.composite
def forms(draw, n):
    """A form on n vertices: blocks of drawn sizes and weights, and up to 6 cross entries."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    sizes = np.diff([0, *cuts, n]).tolist() if n else []
    weight = st.integers(1, 3 * 10**4)
    weights = [draw(weight) for _ in sizes]
    block = st.integers(0, max(len(sizes) - 1, 0))
    entry = st.tuples(block, block, weight).filter(lambda e: e[0] != e[1])
    cross = draw(st.lists(entry, max_size=6)) if len(sizes) > 1 else []
    return QuiverForm(sizes, weights, cross)


@st.composite
def torus_quivers(draw):
    """The quiver of a torus link by R_n, n <= 9, at most 300 colorings, with its lattice form."""
    p, q, n = draw(st.integers(2, 5)), draw(st.integers(0, 10)), draw(st.integers(2, 9))
    try:
        coloring_set = enumerate_colorings_linear(TorusLinkSpec(p, q), n, cap=300)
    except CapExceededError:
        assume(False)
    return build_quiver(coloring_set), lattice_form(coloring_set)[0]


@settings(max_examples=200)
@given(
    st.one_of(
        torus_quivers(),
        random_quivers().flatmap(lambda quiver: st.tuples(st.just(quiver), forms(quiver.n_vertices))),
    ),
    st.booleans(),
    st.integers(1, 5),
    st.none() | st.dictionaries(st.sampled_from("pqn"), st.integers(0, 99)),
)
@example((from_arrows(0, [], [], []), QuiverForm()), True, 1, None)
@example((from_arrows(0, [], [], [], labels=[]), QuiverForm()), True, 1, None)
@example(
    (
        from_arrows(2, [0, 1], [1, 1], [4, 2], labels=[(), ()]),
        QuiverForm([2], [4]),
    ),
    False,
    1,
    {},
)
# weights 1 and 30000 span more than their column: tabled by their distinct values
@example(
    (
        from_arrows(2, [0, 1], [1, 0], [1, 30000]),
        QuiverForm([1, 1], [1, 1], [(0, 1, 30000), (1, 0, 1)]),
    ),
    True,
    2,
    None,
)
# negative labels
@example(
    (
        from_arrows(3, [0, 2], [2, 1], [5, 3], labels=[(-3, 4), (-7, 0), (2, -1)]),
        QuiverForm([3], [2]),
    ),
    True,
    5,
    {"n": 3},
)
# labels near ±2^62, whose span passes int64
@example(
    (
        from_arrows(2, [0], [1], [2], labels=[(2**62 + 5, -(2**62)), (-(2**62) - 5, 2**62)]),
        QuiverForm([2], [1]),
    ),
    True,
    3,
    None,
)
# a single record in every list
@example(
    (from_arrows(1, [0], [0], [7], labels=[(3,)]), QuiverForm([1], [7])),
    True,
    4,
    {"p": 1},
)
# a chunk of 1 over lists of many records
@example(
    (
        from_arrows(4, [0, 1, 2, 3, 3], [1, 2, 3, 0, 3], [9, 8, 7, 6, 5], labels=[(i,) for i in range(4)]),
        QuiverForm([1, 3], [1, 2], [(0, 1, 4), (1, 0, 6)]),
    ),
    True,
    1,
    None,
)
# the first vertices have no arrows, so the first chunks of arrows are
# empty and the first record written comes later
@example(
    (
        from_arrows(4, [2, 3, 3], [0, 1, 3], [3, 4, 5], labels=[(i,) for i in range(4)]),
        QuiverForm([4], [1]),
    ),
    True,
    1,
    None,
)
# without loops: a first chunk of arrows that are all loops
@example(
    (
        from_arrows(3, [0, 1, 1, 2], [0, 1, 2, 2], [3, 4, 5, 6]),
        QuiverForm([3], [1]),
    ),
    False,
    2,
    None,
)
# without loops: a quiver whose arrows are all loops
@example(
    (from_arrows(2, [0, 1], [0, 1], [3, 4], labels=[(1,), (0,)]), QuiverForm([1, 1], [3, 4])),
    False,
    1,
    None,
)
# without loops: a shared row whose arrow to vertex 1 is a loop for vertex 1 only
@example((shared_rows(3, [[(1, 4), (2, 5)], [(0, 7)]], [0, 0, 1]), QuiverForm([3], [1])), False, 1, None)
# a vertex whose only arrow is its loop, as the first record: written with
# loops, and left out without them, so the first record written comes later
@example(
    (shared_rows(3, [[(0, 3)], [(0, 2), (1, 6)]], [0, 1, 1], [(5,), (6,), (7,)]), QuiverForm([3], [1])),
    True,
    2,
    None,
)
@example((shared_rows(3, [[(0, 3)], [(0, 2), (1, 6)]], [0, 1, 1]), QuiverForm([3], [1])), False, 2, None)
# targets 0 and 39 and weights 1 and 30000: their pairs' keys span more
# than a presence mask may, so the pair table is found by a sort
@example(
    (shared_rows(40, [[(0, 1), (39, 30000)], [(39, 1)]], [0] * 20 + [1] * 20), QuiverForm([40], [1])),
    False,
    3,
    None,
)
def test_writers_match_reference(quiver_and_form, loops, chunk, params):
    # a chunk of 1 to 5 records puts chunk boundaries inside every list,
    # and blocks of as many arrows read the stored rows a few at a time
    quiver, form = quiver_and_form
    with (
        mock.patch.object(export, "_CHUNK", chunk),
        mock.patch.object(export, "_BLOCK", chunk),
        mock.patch.object(export, "_table", _short_table),
    ):
        chunks = list(dot_chunks(quiver, include_loops=loops))
        assert "" not in chunks
        assert "".join(chunks) == export_reference.to_dot(quiver, loops)
        assert dot_text(form) == export_reference.to_dot(form)
        assert json_text(quiver, form=form, params=params) == export_reference.to_json(
            quiver, form, params
        )
    assert quiver_from_json(json_text(quiver, form=form)) == quiver


def test_writers_match_reference_across_default_chunks():
    # 78025 arrows and 3125 vertices: many chunks of the default size
    quiver, form = torus_quiver(5, 10, 5)
    for loops in (True, False):
        assert dot_text(quiver, include_loops=loops) == export_reference.to_dot(quiver, loops)
    assert dot_text(form) == export_reference.to_dot(form)
    assert json_text(quiver, form=form, params={"n": 5}) == export_reference.to_json(
        quiver, form, {"n": 5}
    )


def _peak_and_length(chunks):
    """The tracemalloc peak of consuming `chunks` into a sha256, and their total length."""
    digest, length = hashlib.sha256(), 0
    tracemalloc.start()
    try:
        for chunk in chunks():
            digest.update(chunk.encode("utf-8"))
            length += len(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, length


def test_json_writer_peak_memory():
    # T(5,10) by R_5: 3.5 MB of JSON, never held whole; what is held at
    # once is the columns' tables and one chunk of records
    quiver, form = torus_quiver(5, 10, 5)
    peak, length = _peak_and_length(
        lambda: json_chunks(quiver, form=form, params={"p": 5, "q": 10, "n": 5})
    )
    assert length > 3 * 10**6
    assert peak < 0.5 * length


def test_dot_writer_peak_memory():
    # T(5,10) by R_5 in full, with and without loops: the arrows' sources
    # are made, and the loops dropped, a chunk at a time
    quiver, _ = torus_quiver(5, 10, 5)
    for loops in (True, False):
        peak, length = _peak_and_length(lambda: dot_chunks(quiver, include_loops=loops))
        assert length > 2 * 10**6
        assert peak < 0.5 * length


def test_writer_argument_errors_are_raised_at_the_call():
    # each check runs when the writer is called, before any chunk is asked for
    quiver, form = torus_quiver(5, 2, 5)
    # the form is required, and must be on the quiver's vertices
    with pytest.raises(TypeError):
        json_chunks(quiver)
    with pytest.raises(ValueError):
        json_chunks(quiver, form=quiver_form_for_count(5, 6, 96))
    with pytest.raises(TypeError):
        json_chunks({"count": 1})
    with pytest.raises(TypeError):
        json_chunks(quiver, form=form, params=7)
    # a form has no loops to leave out
    with pytest.raises(ValueError):
        dot_chunks(form, include_loops=False)
    with pytest.raises(TypeError):
        dot_chunks([quiver])


@settings(max_examples=100)
@given(st.one_of(torus_quivers().map(lambda quiver_and_form: quiver_and_form[0]), random_quivers()))
# vertices 0, 1 and 2 have no arrows
@example(from_arrows(5, [3, 4, 4], [0, 1, 4], [1, 2, 3]))
# a pair table found by a sort
@example(shared_rows(40, [[(0, 1), (39, 30000)], [(39, 1)], [(0, 1)]], [0] * 20 + [2] * 20))
def test_arrow_pieces_concatenate_to_the_arrows(quiver):
    # the writers list each stored row once, as pieces of a table holding
    # each distinct (target, weight) pair once, and read it through `row`
    _, dst, weight = quiver.arrows()
    assume(dst.size)
    rows = export._row_pieces(quiver, "|", ";")
    assert len(rows) == quiver.indptr.size - 1
    pieces = [piece for r in quiver.row.tolist() for piece in rows[r]]
    assert pieces == [f"{d}|{w};" for d, w in zip(dst.tolist(), weight.tolist())]
    stored = [piece for row in rows for piece in row]
    assert len(set(map(id, stored))) == len(set(stored))
