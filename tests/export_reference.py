"""Reference quiver export used by the tests: one Python object per arrow.

`export.dot_chunks` and `export.json_chunks` write a quiver, or a form,
as chunks of pieces gathered from tables that render each distinct value
of a column once; these are the direct writers whose text the chunks
must join to, byte for byte: an f-string per DOT line, and the standard
library's indenting encoder over one small list per arrow.  Like them,
they print the form they are given.  `quiver_from_json` reads a quiver
back from its JSON.
"""

import json

import numpy as np
from quiver_reference import from_arrows, weight_triples

from quandlequiver.quivers import QuiverForm


def to_dot(graph, include_loops=True):
    lines = ["digraph quiver {"]
    if isinstance(graph, QuiverForm):
        for bi, (size, weight) in enumerate(zip(graph.sizes.tolist(), graph.weights.tolist())):
            lines.append(f'  b{bi} [label="K{size} w={weight}"];')
        for bi, bj, d in graph.cross.tolist():
            lines.append(f'  b{bi} -> b{bj} [label="{d}"];')
    else:
        for v in range(graph.n_vertices):
            lines.append(f'  v{v} [label="{",".join(map(str, graph.labels[v].tolist()))}"];')
        for i, j, w in weight_triples(graph):
            if i == j and not include_loops:
                continue
            lines.append(f'  v{i} -> v{j} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def quiver_to_dict(quiver, form, params=None):
    out = {}
    if params is not None:
        out["params"] = dict(params)
    out["count"] = quiver.n_vertices
    out["colorings"] = quiver.labels.tolist()
    out["weights"] = [[i, j, w] for i, j, w in weight_triples(quiver)]
    out["blocks"] = {
        "blocks": [
            {"size": size, "weight": weight}
            for size, weight in zip(form.sizes.tolist(), form.weights.tolist())
        ],
        "cross": form.cross.tolist(),
    }
    return out


def to_json(quiver, form, params=None):
    return json.dumps(quiver_to_dict(quiver, form, params), indent=2) + "\n"


def quiver_from_json(text):
    """Rebuild a quiver from its JSON text; its params and blocks are not read."""
    payload = json.loads(text)
    arrows = np.array(payload["weights"], dtype=np.int64).reshape(-1, 3)
    return from_arrows(payload["count"], *arrows.T, labels=payload["colorings"])
