"""Serialization: DOT drawings, stable JSON, and sweep-report CSV.

All outputs are deterministic for a given input (fixed key order, sorted
edges, trailing newline), so identical runs yield byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

from .counting import CellRecord
from .quivers import QuiverForm, WeightedQuiver, detect_blocks


@dataclass(frozen=True)
class ExportOptions:
    collapse_blocks: bool = False
    include_loops: bool = True


def _label(vertex: int, labels) -> str:
    if labels is None:
        return str(vertex)
    return ",".join(str(c) for c in labels[vertex])


def to_dot(
    quiver: WeightedQuiver,
    options: ExportOptions | None = None,
    detected: tuple[QuiverForm, list[list[int]]] | None = None,
) -> str:
    """Graphviz text for a quiver, full or collapsed to uniform blocks.

    Full mode emits one labeled edge per ordered vertex pair of nonzero
    weight.  Collapsed mode draws one node per detected block, annotated
    with size and internal weight, and one edge per uniform cross weight.
    `detected` is detect_blocks(quiver), when the caller already has it.
    """
    options = options or ExportOptions()
    lines = ["digraph quiver {"]
    if options.collapse_blocks:
        form, _ = detected or detect_blocks(quiver)
        for bi, f in enumerate(form.families):
            lines.append(f'  b{bi} [label="K{f.size} w={f.weight}"];')
        for bi, bj, d in form.cross:
            lines.append(f'  b{bi} -> b{bj} [label="{d}"];')
    else:
        for v in range(quiver.n_vertices):
            lines.append(f'  v{v} [label="{_label(v, quiver.labels)}"];')
        for i, j, w in quiver.arrows():
            if i == j and not options.include_loops:
                continue
            lines.append(f'  v{i} -> v{j} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _blocks_dict(form: QuiverForm) -> dict:
    return {
        "blocks": [{"size": f.size, "weight": f.weight} for f in form.families],
        "cross": [list(t) for t in form.cross],
    }


def quiver_to_dict(
    quiver: WeightedQuiver,
    params: dict | None = None,
    detected: tuple[QuiverForm, list[list[int]]] | None = None,
) -> dict:
    out: dict = {}
    if params is not None:
        out["params"] = dict(params)
    out["count"] = quiver.n_vertices
    if quiver.labels is not None:
        out["colorings"] = [list(c) for c in quiver.labels]
    out["weights"] = [[i, j, w] for i, j, w in quiver.arrows()]
    if quiver.n_vertices:
        out["blocks"] = _blocks_dict((detected or detect_blocks(quiver))[0])
    return out


def quiver_from_json(text: str) -> WeightedQuiver:
    """Rebuild a quiver from its to_json output (params/blocks are derived)."""
    payload = json.loads(text)
    labels = None
    if "colorings" in payload:
        labels = [tuple(c) for c in payload["colorings"]]
    quiver = WeightedQuiver(payload["count"], labels=labels)
    for i, j, w in payload["weights"]:
        quiver.add(i, j, w)
    return quiver


def to_json(obj, **options) -> str:
    """Stable JSON for quivers, sweep reports, and lists of plain records."""
    if isinstance(obj, WeightedQuiver):
        payload = quiver_to_dict(obj, **options)
    elif isinstance(obj, CellRecord):
        payload = obj.to_dict()
    elif isinstance(obj, (list, tuple)):
        payload = [
            item.to_dict() if isinstance(item, CellRecord) else item for item in obj
        ]
    else:
        raise TypeError(f"no JSON serialization for {type(obj).__name__}")
    # the indenting encoder yields one string per token; joining them in
    # batches holds a few thousand at a time instead of all of them
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    parts = []
    while batch := "".join(islice(chunks, 8192)):
        parts.append(batch)
    parts.append("\n")
    return "".join(parts)


CSV_HEADER = "p,q,n,predicted,case,computed,status"


def to_csv(report: list[CellRecord]) -> str:
    """Sweep report as CSV, rows sorted by (p, q, n).

    Ambiguous cells show both candidates joined by '|' in the predicted
    column; the computed column always carries the resolved value.
    """
    lines = [CSV_HEADER]
    for record in sorted(report, key=lambda r: (r.p, r.q, r.n)):
        predicted = record.prediction.predicted
        if isinstance(predicted, list):
            predicted = "|".join(map(str, predicted))
        lines.append(
            f"{record.p},{record.q},{record.n},{predicted},"
            f"{record.prediction.case},{record.computed},{record.status}"
        )
    return "\n".join(lines) + "\n"
