"""Serialization: DOT drawings, stable JSON, and sweep-report CSV.

All outputs are deterministic for a given input (fixed key order, sorted
edges, trailing newline), so identical runs yield byte-identical files.

A quiver's DOT and JSON are written straight from its arrays, laid out
exactly as the standard library's indenting encoder lays out JSON.  Each
list (vertices, arrows, blocks) is one record template whose `%d` slots
are filled from columns: every distinct value of a column is rendered
once, with the template text after its slot, into a table of pieces, and
a chunk of records is one gather from each column's table and one join.
The arrows' columns are the vertex range and the stored `dst` and
`weight`; `WeightedQuiver.arrows` gathers each chunk, whole rows at a time.
The writers read no block structure of their own: the collapsed DOT and
the JSON's "blocks" print the `QuiverForm` the caller passes, such as
`quivers.lattice_form` reads off the colorings, straight from its
columns (sizes, weights, and the three columns of its cross rows).

The writers `dot_chunks`, `json_chunks` and `csv_chunks` check their
arguments when called and return an iterator of `str` chunks whose join
is the text.  No writer joins the whole text: a caller that writes each
chunk as it comes holds one chunk of records at a time, besides the
tables.  The loop-free DOT drops the loops of each chunk of arrows.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .counting import CellRecord
from .quivers import QuiverForm, WeightedQuiver

# records gathered per join
_CHUNK = 4096


def _table(column: np.ndarray, before: str, after: str):
    """The pieces `before`, value, `after` of each distinct value of `column`,
    a nonempty array, as an object array, and the function taking part of
    `column` to the indices of its pieces.

    Values spanning less than the column's length are tabled over the whole
    range lo..hi and indexed by value − lo; others over their sorted
    distinct values, found by binary search.  Either way the table is no
    longer than the column.
    """
    lo, hi = int(column.min()), int(column.max())
    if hi - lo < column.size:
        values = range(lo, hi + 1)

        def codes(part):
            return part - lo
    else:
        keys = np.sort(column)
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        values = keys.tolist()

        def codes(part):
            return np.searchsorted(keys, part)
    pieces = np.array([f"{before}{v}{after}" for v in values], dtype=object)
    return pieces, codes


def _records(template: str, sep: str, columns, chunks, *, loops: bool = True):
    """Yield the text of records joined by `sep`, a chunk of records at a time.

    The j-th `%d` of `template` takes its values from columns[j], each
    distinct value of which is rendered once, into its column's table of
    pieces: the value followed by the template text after its slot, with
    `sep` and the template's head in front for column 0.  `chunks` yields
    each chunk's record count and parts, part j the chunk's values of slot
    j; an int `chunks` is a count of records taking the columns' entries
    in turn.  A chunk is then one gather per column and one join; only the
    output's first record drops its leading `sep`.  Without `loops`, a
    record whose first two columns are equal is left out, chunk by chunk,
    and a chunk that keeps no record yields nothing.
    """
    if isinstance(chunks, (int, np.integer)):
        rows = chunks
        chunks = (
            (min(_CHUNK, rows - start), [column[start : start + _CHUNK] for column in columns])
            for start in range(0, rows, _CHUNK)
        )
    if not all(len(column) for column in columns):
        return  # a slot with no values has no records
    head, *tails = template.split("%d")
    tables = [
        _table(column, sep + head if j == 0 else "", tail)
        for j, (column, tail) in enumerate(zip(columns, tails, strict=True))
    ]
    lead = len(sep)
    for count, parts in chunks:
        if not loops:
            keep = parts[0] != parts[1]
            count, parts = np.count_nonzero(keep), [part[keep] for part in parts]
        if not count:
            continue
        if tables:
            gathered = [pieces[codes(part)] for part, (pieces, codes) in zip(parts, tables)]
            text = "".join(np.column_stack(gathered).ravel().tolist())
        else:
            text = (sep + template) * count
        yield text[lead:]
        lead = 0


def _arrow_chunks(quiver: WeightedQuiver):
    """The quiver's arrows as `_records` chunks, whole rows at a time: about
    _CHUNK arrows each, spanning at most twice the last chunk's vertices."""
    first, step = 0, 1
    while first < quiver.n_vertices:
        parts = quiver.arrows(first, first + step)
        yield parts[0].size, parts
        first += step
        step = max(1, min(2 * step, step * _CHUNK // max(parts[0].size, 1)))


def dot_chunks(graph: WeightedQuiver | QuiverForm, *, include_loops: bool = True) -> Iterator[str]:
    """Graphviz text for a quiver in full, or for a form collapsed to its blocks,
    as an iterator of chunks whose join is the text.

    A quiver is drawn with one labeled edge per ordered vertex pair of
    nonzero weight, loops only with `include_loops`.  A form is drawn with
    one node per block, annotated with size and internal weight, and one
    edge per cross entry; it has no loops to leave out.  The arguments are
    checked at the call, before any chunk is made.
    """
    if isinstance(graph, QuiverForm):
        if not include_loops:
            raise ValueError("include_loops applies to a quiver's full drawing only")
        return _form_dot(graph)
    if isinstance(graph, WeightedQuiver):
        return _quiver_dot(graph, include_loops)
    raise TypeError(f"no DOT drawing for {type(graph).__name__}")


def _form_dot(form: QuiverForm):
    yield "digraph quiver {\n"
    k = form.sizes.size
    yield from _records('  b%d [label="K%d w=%d"];\n', "", [np.arange(k), form.sizes, form.weights], k)
    yield from _records('  b%d -> b%d [label="%d"];\n', "", form.cross.T, len(form.cross))
    yield "}\n"


def _quiver_dot(quiver: WeightedQuiver, include_loops: bool):
    yield "digraph quiver {\n"
    n = quiver.n_vertices
    vertex = np.arange(n)
    if quiver.labels is None:
        label, columns = "%d", [vertex, vertex]
    else:
        colours = quiver.labels.T
        label, columns = ",".join(["%d"] * len(colours)), [vertex, *colours]
    yield from _records(f'  v%d [label="{label}"];\n', "", columns, n)
    arrows = [vertex, quiver.dst, quiver.weight]
    yield from _records('  v%d -> v%d [label="%d"];\n', "", arrows, _arrow_chunks(quiver), loops=include_loops)
    yield "}\n"


def _indent(level: int) -> str:
    return "  " * level


def _int_list(width: int, level: int) -> str:
    """Template of a JSON list of `width` ints whose brackets sit at `level`."""
    if not width:
        return _indent(level) + "[]"
    items = ",\n".join([_indent(level + 1) + "%d"] * width)
    return f"{_indent(level)}[\n{items}\n{_indent(level)}]"


def _json_list(item: str, columns, chunks, level: int):
    """Yield a JSON list of the records of template `item` that `_records`
    makes of `columns` and `chunks`, held by a key at `level`."""
    records = _records(item, ",\n", columns, chunks)
    first = next(records, None)
    if first is None:
        yield "[]"
        return
    yield "[\n" + first
    yield from records
    yield "\n" + _indent(level) + "]"


def _quiver_json(quiver: WeightedQuiver, form: QuiverForm, params: str):
    """Yield a quiver's JSON: the `params` entry (laid out already, or empty),
    count, colorings, weights, and `form` as its blocks."""
    yield "{\n" + params
    yield f'  "count": {quiver.n_vertices}'
    if quiver.labels is not None:
        colours = quiver.labels.T
        yield ',\n  "colorings": '
        yield from _json_list(_int_list(len(colours), 2), colours, quiver.n_vertices, 1)
    arrows = [np.arange(quiver.n_vertices), quiver.dst, quiver.weight]
    yield ',\n  "weights": '
    yield from _json_list(_int_list(3, 2), arrows, _arrow_chunks(quiver), 1)
    block = f'{_indent(3)}{{\n{_indent(4)}"size": %d,\n{_indent(4)}"weight": %d\n{_indent(3)}}}'
    yield ',\n  "blocks": {\n    "blocks": '
    yield from _json_list(block, [form.sizes, form.weights], form.sizes.size, 2)
    yield ',\n    "cross": '
    yield from _json_list(_int_list(3, 3), form.cross.T, len(form.cross), 2)
    yield "\n  }\n}\n"


def _plain_json(payload: list):
    # the indenting encoder yields one string per token; joining them in
    # batches holds a few thousand at a time instead of all of them
    tokens = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(tokens, 8192)):
        yield batch
    yield "\n"


def json_chunks(obj, *, form: QuiverForm | None = None, params: dict | None = None) -> Iterator[str]:
    """Stable JSON for quivers, sweep reports, and lists of plain records,
    as an iterator of chunks whose join is the text.

    A quiver needs `form`, on its vertices, written as its "blocks", and
    takes `params`, written first.  The arguments are checked at the call,
    before any chunk is made.
    """
    if isinstance(obj, WeightedQuiver):
        if form is None:
            raise TypeError("a quiver's JSON needs the form to write as its blocks")
        if form.n_vertices != obj.n_vertices:
            raise ValueError(
                f"a form on {form.n_vertices} vertices for a quiver on {obj.n_vertices}"
            )
        # a nested value is the value on its own, each line indented one level
        head = "" if params is None else (
            '  "params": ' + json.dumps(dict(params), indent=2).replace("\n", "\n  ") + ",\n"
        )
        return _quiver_json(obj, form, head)
    if isinstance(obj, (list, tuple)):
        return _plain_json([item.to_dict() if isinstance(item, CellRecord) else item for item in obj])
    raise TypeError(f"no JSON serialization for {type(obj).__name__}")


CSV_HEADER = "p,q,n,predicted,case,computed,status"


def csv_chunks(report: list[CellRecord]) -> Iterator[str]:
    """Sweep report as CSV, rows sorted by (p, q, n), one chunk per line.

    Ambiguous cells show both candidates joined by '|' in the predicted
    column; the computed column always carries the resolved value.
    """
    yield CSV_HEADER + "\n"
    for record in sorted(report, key=lambda r: (r.p, r.q, r.n)):
        predicted = record.prediction.predicted
        if isinstance(predicted, list):
            predicted = "|".join(map(str, predicted))
        yield (
            f"{record.p},{record.q},{record.n},{predicted},"
            f"{record.prediction.case},{record.computed},{record.status}\n"
        )
