"""Serialization: DOT drawings, stable JSON, and sweep-report CSV.

All outputs are deterministic for a given input (fixed key order, sorted
edges, trailing newline), so identical runs yield byte-identical files.

A quiver's DOT and JSON are written straight from its arrays, laid out
exactly as the standard library's indenting encoder lays out JSON.  Each
list (vertices, arrows, blocks) is one record template whose `%d` slots
are filled from columns: every distinct value of a column is rendered
once, with the template text after its slot, into a table of pieces, and
a chunk of records is one gather from each column's table and one join.
The writers read no block structure of their own: the collapsed DOT and
the JSON's "blocks" print the `QuiverForm` the caller passes, such as
`quivers.lattice_form` reads off the colorings, straight from its
columns (sizes, weights, and the three columns of its cross rows).

The writers `dot_chunks`, `json_chunks` and `csv_chunks` check their
arguments when called and return an iterator of `str` chunks whose join
is the text.  No writer joins the whole text: a caller that writes each
chunk as it comes holds one chunk of records at a time, besides the
tables.  The loop-free DOT drops the loops of each chunk of arrows as it
is gathered.
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


class _Sources:
    """The source vertex of each arrow of the CSR rows `indptr`, as a column
    `_records` reads.  A slice is made from indptr when asked, one np.repeat
    over its rows, so the column is held whole only where `_table` needs
    its distinct values: for fewer arrows than the rows they span.  Sources
    never decrease, so the first is the least and the last the greatest."""

    def __init__(self, indptr: np.ndarray):
        self.indptr = indptr
        self.size = int(indptr[-1])

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, part: slice) -> np.ndarray:
        start, stop, _ = part.indices(self.size)
        # rows first..last-1 hold arrows start..stop-1
        first = np.searchsorted(self.indptr, start, side="right") - 1
        last = np.searchsorted(self.indptr, stop, side="left")
        bounds = np.clip(self.indptr[first : last + 1], start, stop)
        return np.repeat(np.arange(first, last), np.diff(bounds))

    def min(self) -> int:
        return self[0:1][0]

    def max(self) -> int:
        return self[self.size - 1 : self.size][0]


def _table(column, before: str, after: str):
    """The pieces `before`, value, `after` of each distinct value of `column`,
    as an object array, and the function taking a slice of `column` to the
    indices of its pieces.

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
        keys = np.unique(column[:])
        values = keys.tolist()

        def codes(part):
            return np.searchsorted(keys, part)
    pieces = np.array([f"{before}{v}{after}" for v in values], dtype=object)
    return pieces, codes


def _records(template: str, sep: str, rows: int, columns, *, loops: bool = True):
    """Yield the text of `rows` records joined by `sep`, a chunk of records at a time.

    Record k is `template` with its j-th `%d` filled by column[j][k].  Each
    distinct value of a column is rendered once, into its column's table of
    pieces: the value followed by the template text after its slot, with
    `sep` and the template's head in front for column 0.  A chunk is then
    one gather per column and one join; only the output's first record
    drops its leading `sep`.  Without `loops`, a record whose first two
    columns are equal is left out, chunk by chunk, and a chunk that keeps
    no record yields nothing.
    """
    if not rows:
        return
    head, *tails = template.split("%d")
    tables = [
        (column, *_table(column, sep + head if j == 0 else "", tail))
        for j, (column, tail) in enumerate(zip(columns, tails, strict=True))
    ]
    lead = len(sep)
    for start in range(0, rows, _CHUNK):
        stop = min(start + _CHUNK, rows)
        if tables:
            parts = [column[start:stop] for column, _, _ in tables]
            if not loops:
                keep = parts[0] != parts[1]
                if not keep.any():
                    continue
                parts = [part[keep] for part in parts]
            gathered = [pieces[codes(part)] for part, (_, pieces, codes) in zip(parts, tables)]
            text = "".join(np.column_stack(gathered).ravel().tolist())
        else:
            text = (sep + template) * (stop - start)
        yield text[lead:]
        lead = 0


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
    yield from _records('  b%d [label="K%d w=%d"];\n', "", k, [np.arange(k), form.sizes, form.weights])
    yield from _records('  b%d -> b%d [label="%d"];\n', "", len(form.cross), form.cross.T)
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
    yield from _records(f'  v%d [label="{label}"];\n', "", n, columns)
    arrows = [_Sources(quiver.indptr), quiver.dst, quiver.weight]
    yield from _records('  v%d -> v%d [label="%d"];\n', "", quiver.dst.size, arrows, loops=include_loops)
    yield "}\n"


def _indent(level: int) -> str:
    return "  " * level


def _int_list(width: int, level: int) -> str:
    """Template of a JSON list of `width` ints whose brackets sit at `level`."""
    if not width:
        return _indent(level) + "[]"
    items = ",\n".join([_indent(level + 1) + "%d"] * width)
    return f"{_indent(level)}[\n{items}\n{_indent(level)}]"


def _json_list(item: str, rows: int, columns, level: int):
    """Yield a JSON list of `rows` records of template `item`, held by a key at `level`."""
    if not rows:
        yield "[]"
        return
    yield "[\n"
    yield from _records(item, ",\n", rows, columns)
    yield "\n" + _indent(level) + "]"


def _quiver_json(quiver: WeightedQuiver, form: QuiverForm, params: str):
    """Yield a quiver's JSON: the `params` entry (laid out already, or empty),
    count, colorings, weights, and `form` as its blocks."""
    yield "{\n" + params
    yield f'  "count": {quiver.n_vertices}'
    if quiver.labels is not None:
        colours = quiver.labels.T
        yield ',\n  "colorings": '
        yield from _json_list(_int_list(len(colours), 2), quiver.n_vertices, colours, 1)
    arrows = [_Sources(quiver.indptr), quiver.dst, quiver.weight]
    yield ',\n  "weights": '
    yield from _json_list(_int_list(3, 2), quiver.dst.size, arrows, 1)
    block = f'{_indent(3)}{{\n{_indent(4)}"size": %d,\n{_indent(4)}"weight": %d\n{_indent(3)}}}'
    yield ',\n  "blocks": {\n    "blocks": '
    yield from _json_list(block, form.sizes.size, [form.sizes, form.weights], 2)
    yield ',\n    "cross": '
    yield from _json_list(_int_list(3, 3), len(form.cross), form.cross.T, 2)
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
