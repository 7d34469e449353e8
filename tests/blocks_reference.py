"""Reference blocks used by the tests: a built quiver's twin classes, read
from its row dicts.

`lattice_form` reads the blocks off the colorings, never looking at a
quiver; `twin_blocks` is the definition they must equal on the quiver
the colorings build.
"""

from quiver_reference import DictQuiver


def twin_blocks(quiver) -> list[list[int]]:
    """Classes of u ~ v: both have loops and equal out-row and in-column dicts.

    A vertex without a loop is a class of its own.  Classes are sorted
    vertex lists, ordered by smallest vertex.
    """
    outs = DictQuiver.of(quiver).rows
    ins = [dict() for _ in range(quiver.n_vertices)]
    for i, row in enumerate(outs):
        for j, w in row.items():
            ins[j][i] = w
    classes: dict[object, list[int]] = {}
    for v in range(quiver.n_vertices):
        key = (tuple(sorted(outs[v].items())), tuple(sorted(ins[v].items()))) if v in outs[v] else v
        classes.setdefault(key, []).append(v)
    return sorted(classes.values())
