"""Reference block detection used by the tests: twin classes from row dicts,
and the old colour-refinement detection with uniformity by O(N^2) weight
lookups.

`detect_blocks` keys each looped vertex by its CSR row and column and
numbers the keys in one pass; `twin_blocks` is the direct definition it
must equal.  `detect_blocks` below is the earlier design (refined colours
joined along arrows, all singletons when the candidates are not uniform);
wherever it finds a block of two or more vertices it must agree too.
All of these read the quiver as row dicts.
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


def refine(quiver) -> list[int]:
    """Iterated colour refinement by (loop, out-profile, in-profile).

    Colours are ordinals of sorted signatures, so vertices with equal local
    structure get equal colours whatever their labels.
    """
    outs = DictQuiver.of(quiver).rows
    ins = [dict() for _ in range(quiver.n_vertices)]
    for i, row in enumerate(outs):
        for j, w in row.items():
            ins[j][i] = w
    signatures = [
        (outs[v].get(v, 0), tuple(sorted(outs[v].values())), tuple(sorted(ins[v].values())))
        for v in range(quiver.n_vertices)
    ]
    colors, n_colors = _canonicalize(signatures)
    while True:
        signatures = [
            (
                colors[v],
                tuple(sorted((w, colors[u]) for u, w in outs[v].items())),
                tuple(sorted((w, colors[u]) for u, w in ins[v].items())),
            )
            for v in range(quiver.n_vertices)
        ]
        colors, new_count = _canonicalize(signatures)
        if new_count == n_colors:
            return colors
        n_colors = new_count


def _canonicalize(signatures) -> tuple[list[int], int]:
    ordering = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [ordering[s] for s in signatures], len(ordering)


def detect_blocks(quiver):
    """(blocks, weights, cross) of the complete uniform blocks, else of singletons.

    blocks[i] is a sorted vertex list; weights[i] the internal weight
    (loop weight for singletons); cross[(i, j)] the uniform weight of
    arrows from every vertex of block i to every vertex of block j,
    nonzero entries only.
    """
    n = quiver.n_vertices
    if n == 0:
        return [], [], {}
    colors = refine(quiver)
    quiver = DictQuiver.of(quiver)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i, row in enumerate(quiver.rows):
        for j, w in row.items():
            if w and i != j and colors[i] == colors[j]:
                union(i, j)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    blocks = sorted(groups.values())

    def uniform(block_i, block_j):
        values = {quiver.weight(i, j) for i in block_i for j in block_j}
        return values.pop() if len(values) == 1 else None

    weights = []
    ok = True
    for block in blocks:
        w = uniform(block, block)
        if w is None:
            ok = False
            break
        weights.append(w)
    cross: dict[tuple[int, int], int] = {}
    if ok:
        for bi, block_i in enumerate(blocks):
            for bj, block_j in enumerate(blocks):
                if bi == bj:
                    continue
                d = uniform(block_i, block_j)
                if d is None:
                    ok = False
                    break
                if d:
                    cross[(bi, bj)] = d
            if not ok:
                break
    if not ok:
        blocks = [[v] for v in range(n)]
        weights = [quiver.weight(v, v) for v in range(n)]
        cross = {}
        for i, row in enumerate(quiver.rows):
            for j, w in row.items():
                if w and i != j:
                    cross[(i, j)] = w
    return blocks, weights, cross
