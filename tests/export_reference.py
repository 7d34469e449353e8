"""Reference quiver export used by the tests: one Python object per arrow.

`to_dot` and `to_json` write a quiver from its arrays in chunks of rows,
each filled through one `%d` template; these are the direct writers they
must match byte for byte: an f-string per DOT line, and the standard
library's indenting encoder over one small list per arrow.
"""

import json

from quandlequiver.export import ExportOptions
from quandlequiver.quivers import detect_blocks


def _label(vertex, labels):
    if labels is None:
        return str(vertex)
    return ",".join(str(c) for c in labels[vertex])


def to_dot(quiver, options=None):
    options = options or ExportOptions()
    lines = ["digraph quiver {"]
    if options.collapse_blocks:
        form, _ = detect_blocks(quiver)
        for bi, f in enumerate(form.families):
            lines.append(f'  b{bi} [label="K{f.size} w={f.weight}"];')
        for bi, bj, d in form.cross:
            lines.append(f'  b{bi} -> b{bj} [label="{d}"];')
    else:
        for v in range(quiver.n_vertices):
            lines.append(f'  v{v} [label="{_label(v, quiver.labels)}"];')
        for i, j, w in quiver.weight_triples():
            if i == j and not options.include_loops:
                continue
            lines.append(f'  v{i} -> v{j} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def quiver_to_dict(quiver, params=None):
    out = {}
    if params is not None:
        out["params"] = dict(params)
    out["count"] = quiver.n_vertices
    if quiver.labels is not None:
        out["colorings"] = quiver.labels.tolist()
    out["weights"] = [[i, j, w] for i, j, w in quiver.weight_triples()]
    if quiver.n_vertices:
        form = detect_blocks(quiver)[0]
        out["blocks"] = {
            "blocks": [{"size": f.size, "weight": f.weight} for f in form.families],
            "cross": [list(t) for t in form.cross],
        }
    return out


def to_json(quiver, params=None):
    return json.dumps(quiver_to_dict(quiver, params), indent=2) + "\n"
