"""Serialization: DOT drawings, stable JSON, and sweep-report CSV.

All outputs are deterministic for a given input (fixed key order, sorted
edges, trailing newline), so identical runs yield byte-identical files.

A quiver's DOT and JSON are written straight from its arrays, laid out
exactly as the standard library's indenting encoder lays out JSON.  Each
list (vertices, arrows, blocks) is one record template whose `%d` slots
are filled from columns, and no int is formatted per record.  For the
vertices and the blocks every distinct value of a column is rendered
once, with the template text after its slot, into a table of pieces, and
a chunk of records is one gather from each column's table and one join.
The arrows are written from the stored rows, which the n vertices of a
translation class share: each distinct (dst, weight) pair is rendered
once into one table, about N + 5 pieces on a built quiver; each stored
row is listed once, as E/n references into it in all; and a vertex's
arrows are one join of its row's list, src + src.join(row), src being
the text up to the vertex's target.  The loop-free DOT drops a vertex's
own arrow from its copy of the list alone.
The writers read no block structure of their own: the collapsed DOT and
the JSON's "blocks" print the `QuiverForm` the caller passes, such as
`quivers.lattice_form` reads off the colorings, straight from its
columns (sizes, weights, and the three columns of its cross rows).

The writers `dot_chunks`, `json_chunks` and `csv_chunks` check their
arguments when called and return an iterator of `str` chunks whose join
is the text.  No writer joins the whole text: a caller that writes each
chunk as it comes holds one chunk of about _CHUNK records at a time,
besides the tables and the row lists.  On T(5,10) by R_5 (N = 3125,
E = 78,025) the tracemalloc peak is 0.84 MB for the DOT, with or without
loops, and 1.16 MB for the JSON.
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
# stored arrows per block of rows read into pieces
_BLOCK = 1 << 16


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


def _records(template: str, sep: str, columns, rows: int):
    """Yield the text of `rows` records joined by `sep`, _CHUNK records at a time.

    The j-th `%d` of `template` takes its values from columns[j], each
    distinct value of which is rendered once, into its column's table of
    pieces: the value followed by the template text after its slot, with
    `sep` and the template's head in front for column 0.  A chunk is then
    one gather per column and one join; only the output's first record
    drops its leading `sep`.
    """
    if not rows:
        return
    head, *tails = template.split("%d")
    tables = [
        _table(column, sep + head if j == 0 else "", tail)
        for j, (column, tail) in enumerate(zip(columns, tails, strict=True))
    ]
    lead = len(sep)
    for start in range(0, rows, _CHUNK):
        if tables:
            gathered = [
                pieces[codes(column[start : start + _CHUNK])]
                for column, (pieces, codes) in zip(columns, tables)
            ]
            text = "".join(np.column_stack(gathered).ravel().tolist())
        else:
            text = (sep + template) * min(_CHUNK, rows - start)
        yield text[lead:]
        lead = 0


def _row_pieces(quiver: WeightedQuiver, after_dst: str, after_weight: str) -> list[list[str]]:
    """Each stored row of `quiver`, a quiver with arrows, as the list of
    its arrows' pieces: target, `after_dst`, weight, `after_weight`.

    Each distinct (target, weight) pair is rendered once, and the rows
    list references into that table, E/n of them on a built quiver.  The
    weights are coded by `_table`, and a pair is keyed by target and weight
    code; the distinct keys are found with a presence mask over the key
    range when that is at most 16 bytes per stored arrow, else by a sort.
    (Plain `np.unique` hashes, and its first call in a process costs more
    than a writer's whole run.)  The mask is filled, and the rows listed,
    in blocks of whole rows of about _BLOCK arrows each.
    """
    indptr, dst, weight = quiver.indptr, quiver.dst, quiver.weight
    weight_pieces, weight_codes = _table(weight, after_dst, after_weight)
    weight_pieces, width = weight_pieces.tolist(), len(weight_pieces)
    lo = int(dst.min())
    span = (int(dst.max()) - lo + 1) * width
    step = max(1, _BLOCK * (indptr.size - 1) // dst.size)
    blocks = [
        (first, min(first + step, indptr.size - 1)) for first in range(0, indptr.size - 1, step)
    ]

    def keys(first, last):
        at = slice(indptr[first], indptr[last])
        return (dst[at] - lo) * width + weight_codes(weight[at])

    if span <= 16 * dst.size:
        present = np.zeros(span, dtype=bool)
        for first, last in blocks:
            present[keys(first, last)] = True
        pairs = np.flatnonzero(present)
        del present
    else:
        pairs = np.sort(keys(0, indptr.size - 1))
        pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
    targets, codes = np.divmod(pairs, width)
    pieces = np.array(
        [f"{t + lo}{weight_pieces[c]}" for t, c in zip(targets.tolist(), codes.tolist())],
        dtype=object,
    )
    rows = []
    for first, last in blocks:
        flat = pieces[np.searchsorted(pairs, keys(first, last))].tolist()
        ends = (indptr[first : last + 1] - indptr[first]).tolist()
        rows.extend(flat[a:b] for a, b in zip(ends, ends[1:]))
    return rows


def _own_arrows(quiver: WeightedQuiver) -> np.ndarray:
    """The position of each vertex's loop within its stored row, or -1:
    one vectorised bisection for v among its row's increasing targets."""
    dst, vertex = quiver.dst, np.arange(quiver.n_vertices)
    start, end = quiver.indptr[quiver.row], quiver.indptr[quiver.row + 1]
    lo, hi = start, end
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        below = open_ & (dst[np.minimum(mid, dst.size - 1)] < vertex)
        lo, hi = np.where(below, mid + 1, lo), np.where(open_ & ~below, mid, hi)
    found = (lo < end) & (dst[np.minimum(lo, dst.size - 1)] == vertex)
    return np.where(found, lo - start, -1)


def _arrow_records(template: str, sep: str, quiver: WeightedQuiver, *, loops: bool):
    """Yield the text of the quiver's arrows as records of `template`, whose
    slots take source, target and weight, joined by `sep`: about _CHUNK
    arrows at a time, whole vertices at a time.

    A stored row's pieces (`_row_pieces`) are shared by the vertices that
    read it, and a vertex's text is one join of them, src + src.join(row),
    src being `sep`, the template's head, the vertex and the text after
    it.  Without `loops` a vertex drops its own arrow from its copy of the
    row alone.  Only the output's first record drops its leading `sep`.
    """
    if not quiver.dst.size:
        return
    head, after_src, after_dst, after_weight = template.split("%d")
    rows = _row_pieces(quiver, after_dst, after_weight)
    own = [-1] * quiver.n_vertices if loops else _own_arrows(quiver).tolist()
    parts, count, lead = [], 0, len(sep)
    for v, (r, k) in enumerate(zip(quiver.row.tolist(), own)):
        records = rows[r] if k < 0 else rows[r][:k] + rows[r][k + 1 :]
        if not records:
            continue
        src = f"{sep}{head}{v}{after_src}"
        parts.append(src + src.join(records))
        count += len(records)
        if count >= _CHUNK:
            yield "".join(parts)[lead:]
            parts, count, lead = [], 0, 0
    if parts:
        yield "".join(parts)[lead:]


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
    colours = quiver.labels.T
    label = ",".join(["%d"] * len(colours))
    yield from _records(f'  v%d [label="{label}"];\n', "", [np.arange(n), *colours], n)
    yield from _arrow_records('  v%d -> v%d [label="%d"];\n', "", quiver, loops=include_loops)
    yield "}\n"


def _indent(level: int) -> str:
    return "  " * level


def _int_list(width: int, level: int) -> str:
    """Template of a JSON list of `width` ints whose brackets sit at `level`."""
    if not width:
        return _indent(level) + "[]"
    items = ",\n".join([_indent(level + 1) + "%d"] * width)
    return f"{_indent(level)}[\n{items}\n{_indent(level)}]"


def _json_list(records, level: int):
    """Yield a JSON list of `records`, chunks of records joined by ",\n",
    held by a key at `level`."""
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
    colours = quiver.labels.T
    yield ',\n  "colorings": '
    yield from _json_list(_records(_int_list(len(colours), 2), ",\n", colours, quiver.n_vertices), 1)
    yield ',\n  "weights": '
    yield from _json_list(_arrow_records(_int_list(3, 2), ",\n", quiver, loops=True), 1)
    block = f'{_indent(3)}{{\n{_indent(4)}"size": %d,\n{_indent(4)}"weight": %d\n{_indent(3)}}}'
    yield ',\n  "blocks": {\n    "blocks": '
    yield from _json_list(_records(block, ",\n", [form.sizes, form.weights], form.sizes.size), 2)
    yield ',\n    "cross": '
    yield from _json_list(_records(_int_list(3, 3), ",\n", form.cross.T, len(form.cross)), 2)
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
