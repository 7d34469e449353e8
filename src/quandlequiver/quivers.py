"""Coloring quivers: construction, closed-form shapes, blocks, and comparison.

The quiver of a coloring set has one vertex per coloring and, for each
endomorphism phi of the target quandle, one arrow f -> phi . f; arrows
with the same endpoints merge into an integer weight.  Row sums therefore
all equal the number of endomorphisms supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .colorings import ColoringSet
from .counting import is_prime, predict_count
from .errors import AmbiguousCountError, InternalConsistencyError
from .quandles import DihedralQuandle, Endomorphism


class WeightedQuiver:
    """Weighted directed graph on vertices 0..n_vertices-1.

    Rows are sparse dicts target -> weight holding only nonzero weights.
    `labels`, when present, names each vertex by its coloring vector.
    """

    def __init__(self, n_vertices: int, labels: list[tuple[int, ...]] | None = None):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is not None and len(labels) != n_vertices:
            raise ValueError("labels must match the vertex count")
        self.n_vertices = n_vertices
        self.rows: list[dict[int, int]] = [dict() for _ in range(n_vertices)]
        self.labels = labels

    def add(self, i: int, j: int, w: int = 1):
        if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
            raise ValueError(f"edge ({i}, {j}) outside 0..{self.n_vertices - 1}")
        if w < 0:
            raise ValueError(f"weight must be nonnegative, got {w}")
        if w:
            row = self.rows[i]
            row[j] = row.get(j, 0) + w

    def weight(self, i: int, j: int) -> int:
        return self.rows[i].get(j, 0)

    def row_sum(self, i: int) -> int:
        return sum(self.rows[i].values())

    def arrows(self):
        """(source, target, weight) of each nonzero weight, in sorted order, read row by row."""
        for i, row in enumerate(self.rows):
            for j, w in sorted(row.items()):
                if w:
                    yield i, j, w

    def weight_triples(self) -> list[tuple[int, int, int]]:
        """Sorted sparse (source, target, weight) triples."""
        return list(self.arrows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedQuiver):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and self.labels == other.labels
            and [{j: w for j, w in row.items() if w} for row in self.rows]
            == [{j: w for j, w in row.items() if w} for row in other.rows]
        )

    def __repr__(self):
        edges = sum(len(r) for r in self.rows)
        return f"WeightedQuiver({self.n_vertices} vertices, {edges} weighted edges)"


# arrows handled per batch; at 1 << 16 the freed batch arrays left 2.5 MB
# more resident after an N = 3125 build
_SLAB = 1 << 13


def _row_keys(rows: np.ndarray, m: int, key_type) -> np.ndarray:
    """Each row of colours read as base-m digits, the first most significant.

    Key order is lexicographic row order.
    """
    keys = rows[..., 0].astype(key_type)
    for j in range(1, rows.shape[-1]):
        keys *= m
        keys += rows[..., j].astype(key_type)
    return keys


def _fill_rows(rows: list[dict[int, int]], start: int, targets: np.ndarray, vertices: np.ndarray):
    """rows[start + i] from targets[i], the sorted targets of vertex i's arrows.

    Runs of one target merge into its weight.  Targets are taken from
    `vertices`, one int object per vertex, so the rows share them.
    """
    n_rows, per_row = targets.shape
    if not per_row:
        return
    flat = targets.ravel()
    new_run = np.ones(flat.size, dtype=bool)
    new_run[1:] = flat[1:] != flat[:-1]
    new_run[::per_row] = True
    run_starts = np.flatnonzero(new_run)
    weights = np.diff(run_starts, append=flat.size).tolist()
    bounds = np.searchsorted(run_starts, np.arange(0, flat.size + 1, per_row)).tolist()
    ends = vertices[flat[run_starts]].tolist()
    for i in range(n_rows):
        a, b = bounds[i], bounds[i + 1]
        rows[start + i] = dict(zip(ends[a:b], weights[a:b]))


def build_quiver(coloring_set: ColoringSet, endos) -> WeightedQuiver:
    """Apply every endomorphism to every coloring and record the arrows.

    Each coloring is keyed by its colours in base m; the image rows of a
    slab of colorings under all endomorphisms are gathered at once and
    found among the keys by binary search.  The coloring list must be
    sorted and closed under each endomorphism (it is, for the full
    endomorphism monoid of the target); a landing outside the list means
    the inputs are inconsistent and raises.  Structural laws that hold by
    construction are re-checked on every build.
    """
    if coloring_set.colorings is None:
        raise ValueError("cannot build a quiver from a count-only coloring set")
    endos = list(endos)
    m = coloring_set.quandle.size
    for phi in endos:
        if not isinstance(phi, Endomorphism) or len(phi.images) != m:
            raise ValueError("endomorphisms must act on the coloring set's quandle")
    colorings = coloring_set.colorings
    n_vertices = len(colorings)
    strands = coloring_set.word.strands
    colour = np.min_scalar_type(m - 1)
    key_type = np.int64 if m**strands < 2**63 else object
    points = np.array(colorings, dtype=colour).reshape(n_vertices, strands)
    keys = _row_keys(points, m, key_type)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("colorings must be sorted and distinct")
    images = np.array([phi.images for phi in endos], dtype=colour).reshape(len(endos), m)
    quiver = WeightedQuiver(n_vertices, labels=list(colorings))
    vertices = np.arange(n_vertices).astype(object)
    slab_rows = max(1, _SLAB // max(1, len(endos)))
    for start in range(0, n_vertices, slab_rows):
        image_keys = _row_keys(images[:, points[start : start + slab_rows]], m, key_type)
        targets = np.searchsorted(keys, image_keys)
        missing = keys[np.minimum(targets, n_vertices - 1)] != image_keys
        if missing.any():
            e, k = np.argwhere(missing)[0]
            f = colorings[start + k]
            raise InternalConsistencyError(
                f"image {endos[e].apply(f)} of coloring {f} under {endos[e]!r} "
                "is not itself a coloring"
            )
        _fill_rows(quiver.rows, start, np.sort(targets.T, axis=1), vertices)
    _check_structure(quiver, coloring_set, len(endos))
    return quiver


def _check_structure(quiver: WeightedQuiver, coloring_set: ColoringSet, n_endos: int):
    for i in range(quiver.n_vertices):
        if quiver.row_sum(i) != n_endos:
            raise InternalConsistencyError(
                f"row {i} sums to {quiver.row_sum(i)}, expected {n_endos}"
            )
    trivial = set(coloring_set.trivial_indices)
    for i in trivial:
        for j, w in quiver.rows[i].items():
            if j not in trivial and w:
                raise InternalConsistencyError(
                    f"arrow from trivial coloring {i} to nontrivial {j}"
                )
    # with the full affine family over R_n, every trivial -> trivial
    # weight is exactly n
    quandle = coloring_set.quandle
    if isinstance(quandle, DihedralQuandle) and n_endos == quandle.n**2:
        for i in trivial:
            for j in trivial:
                if quiver.weight(i, j) != quandle.n:
                    raise InternalConsistencyError(
                        f"trivial block weight at ({i}, {j}) is "
                        f"{quiver.weight(i, j)}, expected {quandle.n}"
                    )


@dataclass(frozen=True)
class BlockFamily:
    """`copies` disjoint complete blocks on `size` vertices of one weight.

    Weight 0 is allowed only for a single vertex: one without a loop.
    """

    copies: int
    size: int
    weight: int

    def __post_init__(self):
        bad_weight = self.weight < 0 or (self.weight == 0 and self.size > 1)
        if self.copies < 1 or self.size < 1 or bad_weight:
            raise ValueError(
                f"block family needs copies, size >= 1 and weight >= 1 "
                f"(0 for a single vertex), got {self}"
            )


@dataclass(frozen=True)
class QuiverForm:
    """A closed-form quiver shape: complete blocks plus uniform cross arrows.

    `cross` entries (src, dst, d) put d parallel arrows from every vertex
    of every copy in family src to every vertex of every copy in family
    dst.  Complete blocks carry their weight on every ordered pair of
    their vertices, loops included.
    """

    families: tuple[BlockFamily, ...] = ()
    cross: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        k = len(self.families)
        for src, dst, d in self.cross:
            if not (0 <= src < k and 0 <= dst < k) or src == dst:
                raise ValueError(f"bad cross entry ({src}, {dst}, {d})")
            if d < 1:
                raise ValueError(f"cross weight must be at least 1, got {d}")

    @property
    def n_vertices(self) -> int:
        return sum(f.copies * f.size for f in self.families)

    @property
    def n_blocks(self) -> int:
        return sum(f.copies for f in self.families)


def complete_form(size: int, weight: int) -> QuiverForm:
    """One complete block: every ordered pair (loops included) at `weight`."""
    return QuiverForm(families=(BlockFamily(1, size, weight),))


def disjoint_union(form: QuiverForm, m: int) -> QuiverForm:
    """m disjoint copies of a cross-free form."""
    if m < 1:
        raise ValueError(f"multiplicity must be at least 1, got {m}")
    if form.cross:
        raise ValueError("disjoint union of joined forms is not supported")
    return QuiverForm(
        families=tuple(
            BlockFamily(f.copies * m, f.size, f.weight) for f in form.families
        )
    )


def join_form(g1: QuiverForm, g2: QuiverForm, d: int) -> QuiverForm:
    """Disjoint union of g1 and g2 plus d arrows from each g2 vertex to each g1 vertex."""
    if d < 1:
        raise ValueError(f"join weight must be at least 1, got {d}")
    offset = len(g1.families)
    cross = list(g1.cross)
    cross.extend((s + offset, t + offset, w) for s, t, w in g2.cross)
    cross.extend(
        (j + offset, i, d)
        for j in range(len(g2.families))
        for i in range(len(g1.families))
    )
    return QuiverForm(families=g1.families + g2.families, cross=tuple(cross))


def realize(form: QuiverForm) -> WeightedQuiver:
    """Expand a form to an explicit quiver, vertices in block-major order."""
    quiver = WeightedQuiver(form.n_vertices)
    spans: list[list[tuple[int, int]]] = []
    pos = 0
    for f in form.families:
        copies = []
        for _ in range(f.copies):
            copies.append((pos, pos + f.size))
            pos += f.size
        spans.append(copies)
    for f, family_spans in zip(form.families, spans):
        if not f.weight:
            continue
        for a, b in family_spans:
            for i in range(a, b):
                row = quiver.rows[i]
                for j in range(a, b):
                    row[j] = f.weight
    for src, dst, d in form.cross:
        for a, b in spans[src]:
            for i in range(a, b):
                row = quiver.rows[i]
                for c, e in spans[dst]:
                    for j in range(c, e):
                        row[j] = row.get(j, 0) + d
    return quiver


def quiver_form_for_count(p: int, n: int, count: int) -> QuiverForm:
    """The closed-form quiver shape for a torus link with a known count.

    Dispatches on how the count relates to n; used both by predict_quiver
    and for comparing against computed counts in cells where the count
    formula itself is ambiguous.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    trivial = complete_form(n, n)
    if count == n:
        return trivial
    if count == p * n:
        # gcd(n, p) = p here, so the cross weight n/p is integral
        return join_form(trivial, complete_form((p - 1) * n, n // p), n // p)
    if count == 2 ** (p - 1) * n:
        # n is even in this regime
        blocks = disjoint_union(complete_form(n, n // 2), 2 ** (p - 1) - 1)
        return join_form(trivial, blocks, n // 2)
    if count == n**p:
        if not is_prime(n):
            raise ValueError(
                f"no closed-form quiver for count n^p with composite n = {n}"
            )
        m = (n**p - n) // (n * (n - 1))
        blocks = disjoint_union(complete_form(n * (n - 1), 1), m)
        return join_form(trivial, blocks, 1)
    raise ValueError(f"count {count} matches no closed-form quiver shape for (p={p}, n={n})")


def predict_quiver(p: int, q: int, n: int) -> QuiverForm:
    """Closed-form quiver of T(p, q) colored by R_n, when the count is settled."""
    prediction = predict_count(p, q, n)
    if prediction.ambiguous:
        raise AmbiguousCountError(
            f"count of T({p},{q}) by R_{n} is ambiguous "
            f"({' vs '.join(map(str, prediction.candidates))}); compute it and "
            "dispatch with quiver_form_for_count",
            candidates=prediction.candidates,
        )
    return quiver_form_for_count(p, n, prediction.n_colorings)


# --- block structure -----------------------------------------------------


def _refine(quiver: WeightedQuiver) -> list[int]:
    """Iterated colour refinement by (loop, out-profile, in-profile).

    The first signature of a vertex is its loop weight with the multisets
    of its out- and in-weights; each later one its colour with the
    multisets of (weight, neighbour colour) over its out- and in-arrows,
    until the number of colours stops growing.  A signature is packed as
    the sorted segments of its arrows' values, one int64 each, and
    compared exactly as bytes, so the partition into colours depends on
    local structure only, never on vertex labels.  Colours number the
    signatures in order of first appearance.
    """
    n = quiver.n_vertices
    rows = quiver.rows
    out_degree = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    n_edges = int(out_degree.sum())
    src = np.repeat(np.arange(n), out_degree)
    dst = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=n_edges)
    weights = np.fromiter(
        chain.from_iterable(row.values() for row in rows), dtype=np.int64, count=n_edges
    )
    # weight ranks keep order and equality and bound the packed values;
    # the appended 0 ranks the weight of a missing loop
    _, rank = np.unique(np.append(weights, 0), return_inverse=True)
    loop = np.full(n, rank[-1])
    is_loop = src == dst
    loop[src[is_loop]] = rank[:-1][is_loop]
    rank = rank[:-1]
    by_dst = np.argsort(dst, kind="stable")
    in_owner, in_other, in_rank = dst[by_dst], src[by_dst], rank[by_dst]
    in_degree = np.bincount(dst, minlength=n)

    # vertex v's signature: [head, out-degree, sorted out values, sorted in values]
    sizes = 2 + out_degree + in_degree
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    edge = np.arange(n_edges)
    out_first = np.cumsum(out_degree) - out_degree
    in_first = np.cumsum(in_degree) - in_degree
    out_pos = offsets[src] + 2 + edge - out_first[src]
    in_pos = offsets[in_owner] + 2 + out_degree[in_owner] + edge - in_first[in_owner]
    packed = np.empty(int(offsets[-1]), dtype=np.int64)
    packed[offsets[:-1] + 1] = out_degree
    spans = (offsets * packed.itemsize).tolist()

    def classes(head, out_values, in_values):
        packed[offsets[:-1]] = head
        packed[out_pos] = out_values[np.lexsort((out_values, src))]
        packed[in_pos] = in_values[np.lexsort((in_values, in_owner))]
        data = packed.tobytes()
        seen: dict[bytes, int] = {}
        colors = [seen.setdefault(data[a:b], len(seen)) for a, b in zip(spans, spans[1:])]
        return colors, len(seen)

    colors, n_colors = classes(loop, rank, in_rank)
    while True:
        current = np.array(colors, dtype=np.int64)
        colors, new_count = classes(
            current, rank * n_colors + current[dst], in_rank * n_colors + current[in_other]
        )
        if new_count == n_colors:
            return colors
        n_colors = new_count


def _block_profiles(quiver: WeightedQuiver, blocks: list[list[int]]) -> list[dict[int, int]] | None:
    """Per block, the one weight its vertices send to each block they reach.

    A vertex's row tally holds, for each block its arrows reach, their
    count and their single weight.  The blocks are complete and uniform
    exactly when every tally covers whole blocks and all vertices of a
    block share one; otherwise None.  O(E).
    """
    block_of = [0] * quiver.n_vertices
    for b, block in enumerate(blocks):
        for v in block:
            block_of[v] = b
    profiles = []
    for block in blocks:
        shared = None
        for v in block:
            counts: dict[int, int] = {}
            profile: dict[int, int] = {}
            for u, w in quiver.rows[v].items():
                if not w:
                    continue
                b = block_of[u]
                if profile.setdefault(b, w) != w:
                    return None
                counts[b] = counts.get(b, 0) + 1
            if any(count != len(blocks[b]) for b, count in counts.items()):
                return None
            if shared is None:
                shared = profile
            elif profile != shared:
                return None
        profiles.append(shared)
    return profiles


def detect_blocks(quiver: WeightedQuiver) -> tuple[QuiverForm, list[list[int]]]:
    """Group vertices into complete blocks with uniform internal and cross weights.

    Vertices sharing a refinement colour are merged along nonzero arrows,
    then every candidate block is checked for one uniform internal weight
    and uniform cross weights; any failure drops the decomposition to
    singletons, which always hold.

    Returns (form, blocks): `form` has one single-copy family per block,
    carrying its internal weight (a singleton's loop weight, possibly 0),
    and `cross` triples over block indices; blocks[i] is the sorted vertex
    list of block i.  Blocks are ordered by smallest vertex.
    """
    n = quiver.n_vertices
    colors = _refine(quiver)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(quiver.rows):
        for j, w in row.items():
            if w and i != j and colors[i] == colors[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    blocks = sorted(groups.values())
    profiles = _block_profiles(quiver, blocks)
    if profiles is None:
        blocks = [[v] for v in range(n)]
        profiles = _block_profiles(quiver, blocks)
    form = QuiverForm(
        families=tuple(
            BlockFamily(1, len(block), profile.get(b, 0))
            for b, (block, profile) in enumerate(zip(blocks, profiles))
        ),
        cross=tuple(
            (b, c, d)
            for b, profile in enumerate(profiles)
            for c, d in sorted(profile.items())
            if c != b
        ),
    )
    return form, blocks


# --- comparison ----------------------------------------------------------


def isomorphic(
    quiver: WeightedQuiver,
    form: QuiverForm,
    detected: tuple[QuiverForm, list[list[int]]] | None = None,
) -> tuple[int, ...] | None:
    """A weight-preserving vertex mapping of `quiver` onto realize(form), or None.

    `detected` is detect_blocks(quiver), when the caller already has it.

    The mapping sends each vertex to its image in realize(form)'s
    block-major order.  Each block detect_blocks finds in `quiver` is
    matched to a free copy of the form's family with the same size and
    weight, and the mapping is then checked arrow by arrow, so a returned
    mapping is always an isomorphism.

    None is an exact refutation when the form's families have distinct
    weights (a form with two families of one weight raises ValueError):

    - refinement starts from each vertex's loop weight, the weight of its
      family, so it never merges two families; copies of one family have
      no arrows between them; so detect_blocks(realize(form)) returns
      exactly the form's copies;
    - detect_blocks commutes with isomorphism, so a quiver isomorphic to
      realize(form) decomposes into blocks matching those copies;
    - vertices within a copy, and copies within a family, are
      interchangeable, so when any isomorphism exists the matched mapping
      is one.

    Every shape quiver_form_for_count returns has distinct weights: n with
    n/p, n/2 or 1.
    """
    weights = [f.weight for f in form.families]
    if len(set(weights)) < len(weights):
        raise ValueError(f"the form's families need distinct weights, got {weights}")
    if quiver.n_vertices != form.n_vertices:
        return None
    target = realize(form)
    free: dict[tuple[int, int], list[int]] = {}
    start = 0
    for f in form.families:
        for _ in range(f.copies):
            free.setdefault((f.size, f.weight), []).append(start)
            start += f.size
    detected, blocks = detected or detect_blocks(quiver)
    mapping = [0] * quiver.n_vertices
    for family, block in zip(detected.families, blocks):
        starts = free.get((family.size, family.weight))
        if not starts:
            return None
        start = starts.pop()
        for k, v in enumerate(block):
            mapping[v] = start + k
    for v, row in enumerate(quiver.rows):
        mapped_row = target.rows[mapping[v]]
        if len(row) != len(mapped_row):
            return None
        for u, w in row.items():
            if mapped_row.get(mapping[u], 0) != w:
                return None
    return tuple(mapping)
