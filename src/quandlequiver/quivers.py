"""Coloring quivers: construction, closed-form shapes, blocks, and comparison.

The quiver of a coloring set has one vertex per coloring and, for each
endomorphism phi of the target quandle, one arrow f -> phi . f; arrows
with the same endpoints merge into an integer weight.  Row sums therefore
all equal the number of endomorphisms supplied.  The endomorphisms come
as one (k, m) image array, such as `quandles.affine_endomorphisms`
returns, and `build_quiver` checks every row against the coloring set's
own quandle before it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .colorings import ColoringSet
from .counting import is_prime, predict_count
from .errors import AmbiguousCountError, InternalConsistencyError
from .quandles import DihedralQuandle, FiniteQuandle


class WeightedQuiver:
    """Immutable weighted directed graph on vertices 0..n_vertices-1, as CSR arrays.

    Row i's arrows go to dst[indptr[i]:indptr[i + 1]], strictly increasing,
    with the positive weights weight[indptr[i]:indptr[i + 1]]; the arrays
    are int64 and read-only.  `labels`, when present, is a read-only int64
    array naming vertex i by its coloring labels[i].  Build one with `from_arrows`.
    """

    __slots__ = ("n_vertices", "indptr", "dst", "weight", "labels")

    def __init__(self, n_vertices: int, indptr, dst, weight, labels):
        # trusted: from_arrows has validated and canonicalized the arrays
        self.n_vertices = n_vertices
        self.indptr, self.dst, self.weight = indptr, dst, weight
        self.labels = labels

    @classmethod
    def from_arrows(cls, n: int, src, dst, weight, labels=None) -> WeightedQuiver:
        """The quiver on n vertices with arrows src[k] -> dst[k] of weight weight[k].

        Arrows with the same endpoints are summed and zero weights dropped.
        A vertex outside 0..n-1, a negative weight, or labels that are not
        n rows of one width raise ValueError.
        """
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).view()
            if labels.shape == (0,):
                labels = labels.reshape(0, 0)
            if labels.ndim != 2 or len(labels) != n:
                raise ValueError(f"labels must be {n} rows of one width, got shape {labels.shape}")
            labels.flags.writeable = False
        src, dst, weight = (np.array(a, dtype=np.int64).reshape(-1) for a in (src, dst, weight))
        if not src.size == dst.size == weight.size:
            raise ValueError("src, dst and weight must have one length")
        outside = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if outside.any():
            k = np.argmax(outside)
            raise ValueError(f"edge ({src[k]}, {dst[k]}) outside 0..{n - 1}")
        if (weight < 0).any():
            raise ValueError(f"weight must be nonnegative, got {weight[np.argmax(weight < 0)]}")
        key = src * n + dst
        if np.any(key[1:] <= key[:-1]):
            order = np.argsort(key, kind="stable")
            key, src, dst, weight = key[order], src[order], dst[order], weight[order]
            first = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
            src, dst, weight = src[first], dst[first], np.add.reduceat(weight, first)
        if not weight.all():
            keep = weight != 0
            src, dst, weight = src[keep], dst[keep], weight[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        for a in (indptr, dst, weight):
            a.flags.writeable = False
        return cls(n, indptr, dst, weight, labels)

    def sources(self) -> np.ndarray:
        """The source vertex of each arrow, aligned with dst and weight."""
        return np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))

    def weight_triples(self) -> list[tuple[int, int, int]]:
        """(source, target, weight) of each arrow, in sorted order, read row by row."""
        return list(zip(self.sources().tolist(), self.dst.tolist(), self.weight.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedQuiver):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weight, other.weight)
        )

    def __repr__(self):
        return f"WeightedQuiver({self.n_vertices} vertices, {self.dst.size} weighted edges)"


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


# image pairs checked per batch: 2^16 keeps each batch's arrays under 1 MB
_CHECK_PAIRS = 1 << 16


def _endomorphism_images(quandle: FiniteQuandle, endos, colour) -> np.ndarray:
    """The (k, m) rows of `endos` in colour dtype, each an endomorphism of `quandle`.

    Each row must hold m images in 0..m-1 with phi(x*y) == phi(x)*phi(y)
    for every pair (x, y).  Rows are checked a batch at a time; the first
    failing row, and its first failing pair, raise ValueError.
    """
    m = quandle.size
    endos = np.asarray(endos, dtype=np.int64)
    if endos.shape == (0,):
        endos = endos.reshape(0, m)
    if endos.ndim != 2 or endos.shape[1] != m:
        raise ValueError(f"endomorphisms must be rows of {m} images, got shape {endos.shape}")
    outside = (endos < 0) | (endos >= m)
    if outside.any():
        raise ValueError(f"image {endos[outside][0]} outside 0..{m - 1}")
    images = endos.astype(colour)
    table = quandle.table.astype(colour)
    step = max(1, _CHECK_PAIRS // (m * m))
    for start in range(0, len(images), step):
        phi = images[start : start + step]
        # phi(x*y) against phi(x)*phi(y), indexed (row, x, y)
        broken = phi[:, table] != table[phi[:, :, None], phi[:, None, :]]
        if broken.any():
            e, x, y = np.unravel_index(broken.argmax(), broken.shape)
            raise ValueError(
                f"endomorphism {start + e}: not a homomorphism: "
                f"phi({x}*{y}) != phi({x})*phi({y})"
            )
    return images


def build_quiver(coloring_set: ColoringSet, endos) -> WeightedQuiver:
    """Apply every endomorphism to every coloring and record the arrows.

    `endos` is a (k, m) array-like whose row lists a map's images of
    0..m-1; every row is first checked to be an endomorphism of the
    coloring set's own quandle, and a row that is not raises ValueError.
    Each coloring is keyed by its colours in base m; the image rows of a
    slab of colorings under all endomorphisms are gathered at once and
    found among the keys by binary search.  Sorting each vertex's targets
    and taking run lengths gives its arrows and their weights.  The
    colorings must be sorted and closed under each endomorphism (they
    are, for the full endomorphism monoid of the target); a landing outside
    them means the inputs are inconsistent and raises.  Structural laws
    that hold by construction are re-checked on every build.
    """
    m = coloring_set.quandle.size
    colour = np.min_scalar_type(m - 1)
    images = _endomorphism_images(coloring_set.quandle, endos, colour)
    colorings = coloring_set.colorings
    n_vertices, strands = colorings.shape
    key_type = np.int64 if m**strands < 2**63 else object
    points = colorings.astype(colour)
    keys = _row_keys(points, m, key_type)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("colorings must be sorted and distinct")
    per_row = len(images)
    slabs = range(0, n_vertices, max(1, _SLAB // per_row)) if per_row else ()
    src, dst, weight = [], [], []
    for start in slabs:
        image_keys = _row_keys(images[:, points[start : start + slabs.step]], m, key_type)
        targets = np.searchsorted(keys, image_keys)
        missing = keys[np.minimum(targets, n_vertices - 1)] != image_keys
        if missing.any():
            e, k = np.argwhere(missing)[0]
            f = points[start + k]
            raise InternalConsistencyError(
                f"image {tuple(images[e][f].tolist())} of coloring {tuple(f.tolist())} "
                f"under endomorphism {e} is not itself a coloring"
            )
        # each run of one target in a vertex's sorted targets is one arrow
        flat = np.sort(targets.T, axis=1).ravel()
        new_run = np.ones(flat.size, dtype=bool)
        new_run[1:] = flat[1:] != flat[:-1]
        new_run[::per_row] = True
        run_starts = np.flatnonzero(new_run)
        src.append(start + run_starts // per_row)
        dst.append(flat[run_starts])
        weight.append(np.diff(run_starts, append=flat.size))
    arrays = (np.concatenate(a) if a else () for a in (src, dst, weight))
    quiver = WeightedQuiver.from_arrows(n_vertices, *arrays, labels=colorings)
    _check_structure(quiver, coloring_set, per_row)
    return quiver


def _check_structure(quiver: WeightedQuiver, coloring_set: ColoringSet, n_endos: int):
    src, dst, weight = quiver.sources(), quiver.dst, quiver.weight
    sums = np.diff(np.append(0, np.cumsum(weight))[quiver.indptr])
    bad = np.flatnonzero(sums != n_endos)
    if bad.size:
        i = bad[0]
        raise InternalConsistencyError(f"row {i} sums to {sums[i]}, expected {n_endos}")
    trivial = coloring_set.trivial_indices
    is_trivial = np.zeros(quiver.n_vertices, dtype=bool)
    is_trivial[trivial] = True
    leaving = np.flatnonzero(is_trivial[src] & ~is_trivial[dst])
    if leaving.size:
        k = leaving[0]
        raise InternalConsistencyError(
            f"arrow from trivial coloring {src[k]} to nontrivial {dst[k]}"
        )
    # with the full affine family over R_n, every trivial -> trivial
    # weight is exactly n
    quandle = coloring_set.quandle
    if isinstance(quandle, DihedralQuandle) and n_endos == quandle.n**2:
        position = np.full(quiver.n_vertices, -1)
        position[trivial] = np.arange(trivial.size)
        # no arrow leaves the trivial colorings, so these all end there
        inside = np.flatnonzero(is_trivial[src])
        block = np.zeros((trivial.size, trivial.size), dtype=np.int64)
        block[position[src[inside]], position[dst[inside]]] = weight[inside]
        bad = np.argwhere(block != quandle.n)
        if bad.size:
            a, b = bad[0]
            raise InternalConsistencyError(
                f"trivial block weight at ({trivial[a]}, {trivial[b]}) is "
                f"{block[a, b]}, expected {quandle.n}"
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


def realize(form: QuiverForm) -> WeightedQuiver:
    """Expand a form to an explicit quiver, vertices in block-major order."""
    # family k holds vertices bounds[k] .. bounds[k + 1] - 1, copy by copy
    bounds = np.cumsum([0] + [f.copies * f.size for f in form.families]).tolist()
    family = [np.arange(a, b) for a, b in zip(bounds, bounds[1:])]
    src, dst, weight = [], [], []
    for f, vertices in zip(form.families, family):
        src.append(np.repeat(vertices, f.size))
        dst.append(np.tile(vertices.reshape(f.copies, f.size), f.size).ravel())
        weight.append(np.full(vertices.size * f.size, f.weight))
    for a, b, d in form.cross:
        src.append(np.repeat(family[a], family[b].size))
        dst.append(np.tile(family[b], family[a].size))
        weight.append(np.full(family[a].size * family[b].size, d))
    arrays = (np.concatenate(a) if a else () for a in (src, dst, weight))
    return WeightedQuiver.from_arrows(form.n_vertices, *arrays)


def quiver_form_for_count(p: int, n: int, count: int) -> QuiverForm:
    """The closed-form quiver shape for a torus link with a known count.

    Dispatches on how the count relates to n; used both by predict_quiver
    and for comparing against computed counts in cells where the count
    formula itself is ambiguous.  Every shape is the trivial block K_n of
    weight n, plus at most one family of `copies` blocks of one `size` and
    `weight`, each of whose vertices sends that weight to every trivial
    vertex.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    trivial = BlockFamily(1, n, n)
    if count == n:
        return QuiverForm((trivial,))
    if count == p * n:
        # gcd(n, p) = p here, so the weight n/p is integral
        copies, size, weight = 1, (p - 1) * n, n // p
    elif count == 2 ** (p - 1) * n:
        # n is even in this regime
        copies, size, weight = 2 ** (p - 1) - 1, n, n // 2
    elif count == n**p:
        if not is_prime(n):
            raise ValueError(f"no closed-form quiver for count n^p with composite n = {n}")
        copies, size, weight = (n**p - n) // (n * (n - 1)), n * (n - 1), 1
    else:
        raise ValueError(f"count {count} matches no closed-form quiver shape for (p={p}, n={n})")
    return QuiverForm((trivial, BlockFamily(copies, size, weight)), ((1, 0, weight),))


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


def _byte_classes(packed: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Number the segments packed[offsets[v]:offsets[v + 1]] by first appearance.

    Segments are compared exactly as bytes: equal segments, equal numbers.
    """
    data = packed.tobytes()
    spans = (offsets * packed.itemsize).tolist()
    seen: dict[bytes, int] = {}
    classes = (seen.setdefault(data[a:b], len(seen)) for a, b in zip(spans, spans[1:]))
    return np.fromiter(classes, dtype=np.int64, count=offsets.size - 1)


def _block_profiles(
    src: np.ndarray, dst: np.ndarray, weight: np.ndarray, block_of: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per block, its internal weight and the one weight it sends to each block it reaches.

    A vertex's profile holds, for each block its arrows reach, that block
    and the single weight of those arrows, which must number the block's
    size.  The blocks are complete and uniform exactly when every vertex
    has such a profile and all vertices of a block share one, compared
    exactly as bytes; blocks that are not raise InternalConsistencyError.
    One grouped pass over (source, target block, weight).

    Returns (internal, cross): internal[b] the weight inside block b (0
    when it has no arrows inside), cross the rows (b, c, d) of the weight
    d that block b sends to each other block c, sorted.
    """
    n, n_blocks = block_of.size, sizes.size
    reach = block_of[dst]
    order = np.lexsort((reach, src))
    src, reach, weight = src[order], reach[order], weight[order]
    new_group = np.ones(src.size, dtype=bool)
    new_group[1:] = (src[1:] != src[:-1]) | (reach[1:] != reach[:-1])
    first = np.flatnonzero(new_group)
    count = np.diff(first, append=src.size)
    src, reach, group_weight = src[first], reach[first], weight[first]
    offsets = np.append(0, np.cumsum(2 * np.bincount(src, minlength=n)))
    classes = _byte_classes(np.column_stack((reach, group_weight)).ravel(), offsets)
    # each block's smallest vertex speaks for it
    speaker = np.full(n_blocks, n)
    np.minimum.at(speaker, block_of, np.arange(n))
    if (
        np.any(weight != np.repeat(group_weight, count))
        or np.any(count != sizes[reach])
        or np.any(classes != classes[speaker[block_of]])
    ):
        raise InternalConsistencyError("twin classes are not complete blocks of uniform weights")
    spoken = np.zeros(n, dtype=bool)
    spoken[speaker] = True
    chosen = spoken[src]
    block, reach, group_weight = block_of[src[chosen]], reach[chosen], group_weight[chosen]
    internal = np.zeros(n_blocks, dtype=np.int64)
    inside = block == reach
    internal[block[inside]] = group_weight[inside]
    return internal, np.column_stack((block, reach, group_weight))[~inside]


def detect_blocks(quiver: WeightedQuiver) -> tuple[QuiverForm, list[list[int]]]:
    """Group vertices into complete blocks with uniform internal and cross weights.

    The blocks are the classes of twins: vertices that have a loop and the
    same out-row and in-column.  In any decomposition into complete blocks
    with uniform weights, rows and columns are constant on each block, so
    every such decomposition refines the twin classes, which form one:
    they are the unique coarsest.  A vertex without a loop is a block of
    its own.  A vertex's key, compared exactly as bytes, is one head value
    (n for a looped vertex, its index otherwise) and its out-degree, which
    fixes where the column starts, then its row's targets and weights and
    its column's sources and weights; the blocks' weights are then
    re-checked by `_block_profiles`.

    Returns (form, blocks): `form` has one single-copy family per block,
    carrying its internal weight (a singleton's loop weight, possibly 0),
    and `cross` triples over block indices; blocks[i] is the sorted vertex
    list of block i.  Blocks are ordered by smallest vertex.
    """
    n = quiver.n_vertices
    src, dst, weight = quiver.sources(), quiver.dst, quiver.weight
    head = np.arange(n)
    head[src[src == dst]] = n
    # the column of each vertex: its arrows in by target, sources ascending
    by_dst = np.argsort(dst, kind="stable")
    out_degree = np.diff(quiver.indptr)
    in_degree = np.bincount(dst, minlength=n)
    offsets = np.append(0, np.cumsum(2 + 2 * (out_degree + in_degree)))
    start = offsets[:-1]
    # every value lies in 0..max(n, largest weight), so the narrowest such dtype serves
    packed = np.empty(int(offsets[-1]), dtype=np.min_scalar_type(max(n, weight.max(initial=0))))
    packed[start] = head
    packed[start + 1] = out_degree
    arrow = np.arange(src.size)
    at = (start + 2 - quiver.indptr[:-1])[src] + arrow
    packed[at] = dst
    packed[at + out_degree[src]] = weight
    owner = dst[by_dst]
    at = (start + 2 + 2 * out_degree - (np.cumsum(in_degree) - in_degree))[owner] + arrow
    packed[at] = src[by_dst]
    packed[at + in_degree[owner]] = weight[by_dst]
    block_of = _byte_classes(packed, offsets)
    sizes = np.bincount(block_of)
    internal, cross = _block_profiles(src, dst, weight, block_of, sizes)
    members = np.argsort(block_of, kind="stable").tolist()
    bounds = np.cumsum(np.append(0, sizes)).tolist()
    families = (BlockFamily(1, size, w) for size, w in zip(sizes.tolist(), internal.tolist()))
    form = QuiverForm(families=tuple(families), cross=tuple(map(tuple, cross.tolist())))
    return form, [members[a:b] for a, b in zip(bounds, bounds[1:])]


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
    weight; the mapped arrows, sorted, must then equal realize(form)'s
    arrows and weights in one array comparison, so a returned mapping is
    always an isomorphism.

    None is an exact refutation when the form's families have distinct
    weights (a form with two families of one weight raises ValueError):

    - detect_blocks returns the twin classes, and those of realize(form)
      are exactly its copies: twins have equal loop weights, which
      separates families of distinct weights, and copies of one family
      share no arrows, while twins send each other their loop weight;
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
    n = quiver.n_vertices
    if n != form.n_vertices:
        return None
    free: dict[tuple[int, int], list[int]] = {}
    start = 0
    for f in form.families:
        for _ in range(f.copies):
            free.setdefault((f.size, f.weight), []).append(start)
            start += f.size
    detected, blocks = detected or detect_blocks(quiver)
    block_start = []
    for family in detected.families:
        starts = free.get((family.size, family.weight))
        if not starts:
            return None
        block_start.append(starts.pop())
    # vertex k of block b goes to block_start[b] + k; with the blocks laid
    # end to end it sits at position (cumsum(sizes) - sizes)[b] + k
    sizes = np.array([f.size for f in detected.families], dtype=np.int64)
    offset = np.array(block_start, dtype=np.int64) - (np.cumsum(sizes) - sizes)
    mapping = np.empty(n, dtype=np.int64)
    mapping[np.fromiter(chain.from_iterable(blocks), dtype=np.int64, count=n)] = (
        np.repeat(offset, sizes) + np.arange(n)
    )
    target = realize(form)
    key = mapping[quiver.sources()] * n + mapping[quiver.dst]
    order = np.argsort(key)
    if np.array_equal(key[order], target.sources() * n + target.dst) and np.array_equal(
        quiver.weight[order], target.weight
    ):
        return tuple(mapping.tolist())
    return None
