"""Coloring quivers: construction, block forms, blocks, and comparison.

The quiver of a coloring set has one vertex per coloring and, for each
endomorphism phi of the target quandle, one arrow f -> phi . f; arrows
with the same endpoints merge into an integer weight.  Row sums therefore
all equal the number of endomorphisms supplied.  The endomorphisms come
as one (k, m) image array, such as `quandles.affine_endomorphisms`
returns, and `build_quiver` checks every row against the coloring set's
own quandle before it builds.  It looks each vertex's distinct images up
once: runs of one image are one arrow, so the lookup is per arrow, not
per endomorphism.

A `QuiverForm` (complete blocks and uniform cross arrows) is three int64
columns: block sizes, block weights and (src, dst, d) cross rows.  It is
read off the colorings by R_n alone by `lattice_form`, the one reader of
block structure, with the blocks' members as one array: it needs no
quiver.  `isomorphic` checks a quiver against a form in O(E), with no
sort and no expansion of the form: each arrow must join two blocks the
form joins, at the form's weight, and each row must hold one arrow per
vertex of the blocks its block reaches, which by pigeonhole its distinct
targets then are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colorings import ColoringSet
from .errors import InternalConsistencyError
from .linalg import row_keys
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
    flat = quandle.table.astype(colour).ravel()
    step = max(1, _CHECK_PAIRS // (m * m))
    for start in range(0, len(images), step):
        phi = images[start : start + step]
        wide = phi.astype(np.intp)
        # phi(x*y) against phi(x)*phi(y), pair (x, y) at column x*m + y
        pairs = (wide[:, :, None] * m + wide[:, None, :]).reshape(len(phi), -1)
        broken = phi.take(flat, axis=1) != flat.take(pairs)
        if broken.any():
            e, pair = np.unravel_index(broken.argmax(), broken.shape)
            x, y = divmod(int(pair), m)
            raise ValueError(
                f"endomorphism {start + e}: not a homomorphism: "
                f"phi({x}*{y}) != phi({x})*phi({y})"
            )
    return images


# a key space of at most this many keys per coloring is looked up through a
# dense inverse table (8 bytes per key), larger ones by binary search
_DENSE_KEYS = 4


def _key_lookup(keys: np.ndarray, key_space: int):
    """The function taking keys to their positions in the increasing `keys`,
    and any other key in 0..key_space-1 to -1.

    A key space at most _DENSE_KEYS times as large as `keys` is one dense
    inverse table; a larger one is searched.  A table lookup costs the same
    in any order of the keys asked, where binary search is fastest on
    nearly sorted ones.
    """
    if key_space <= _DENSE_KEYS * keys.size:
        index = np.full(key_space, -1, dtype=np.int64)
        index[keys] = np.arange(keys.size)
        return index.__getitem__
    last = keys.size - 1

    def search(wanted):
        at = np.searchsorted(keys, wanted)
        return np.where(keys[np.minimum(at, last)] == wanted, at, -1)

    return search


def build_quiver(coloring_set: ColoringSet, endos) -> WeightedQuiver:
    """Apply every endomorphism to every coloring and record the arrows.

    `endos` is a (k, m) array-like whose row lists a map's images of
    0..m-1; every row is first checked to be an endomorphism of the
    coloring set's own quandle, and a row that is not raises ValueError.
    Each coloring is keyed by its colours in base m, and the k image keys
    of a slab of colorings come from one (m, k) table of the images by
    Horner's rule over the strands.  Each vertex's image keys are sorted;
    a run of one key is one arrow, weighted by the run's length, and only
    the run heads are looked up: in a dense inverse table when the key
    space m^strands is at most _DENSE_KEYS keys per coloring, else by
    binary search among the keys.  T(5,5) by R_30 has 432,000 images but
    27,900 heads.  The colorings must be sorted and closed under each
    endomorphism (they are, for the full endomorphism monoid of the
    target); a landing outside them means the inputs are inconsistent and
    raises, naming the image, its coloring and an endomorphism giving it.
    Structural laws that hold by construction are re-checked on every build.
    """
    m = coloring_set.quandle.size
    colour = np.min_scalar_type(m - 1)
    images = _endomorphism_images(coloring_set.quandle, endos, colour)
    colorings = coloring_set.colorings
    n_vertices, width = colorings.shape
    points = colorings.astype(colour)
    keys = row_keys(points, m)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("colorings must be sorted and distinct")
    lookup = _key_lookup(keys, m**width)
    # row c of the table holds the images of colour c, in the keys' dtype
    table = images.T.astype(keys.dtype)
    per_row = len(images)
    slabs = range(0, n_vertices, max(1, _SLAB // per_row)) if per_row else ()
    src, dst, weight = [], [], []
    for start in slabs:
        block = points[start : start + slabs.step]
        image_keys = table[block[:, 0]]
        for j in range(1, width):
            image_keys *= m
            image_keys += table[block[:, j]]
        # each run of one key in a vertex's sorted image keys is one arrow
        flat = np.sort(image_keys, axis=1).ravel()
        new_run = np.ones(flat.size, dtype=bool)
        new_run[1:] = flat[1:] != flat[:-1]
        new_run[::per_row] = True
        run_starts = np.flatnonzero(new_run)
        targets = lookup(flat[run_starts])
        missing = targets < 0
        if missing.any():
            # the first missing head, and one endomorphism of its vertex giving it
            head = run_starts[missing.argmax()]
            k = head // per_row
            e = np.argmax(image_keys[k] == flat[head])
            f = points[start + k]
            raise InternalConsistencyError(
                f"image {tuple(images[e][f].tolist())} of coloring {tuple(f.tolist())} "
                f"under endomorphism {e} is not itself a coloring"
            )
        src.append(start + run_starts // per_row)
        dst.append(targets)
        weight.append(np.diff(run_starts, append=flat.size))
    del lookup  # frees a dense table before the arrays are assembled
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


@dataclass(frozen=True, eq=False)
class QuiverForm:
    """A quiver as complete blocks plus uniform cross arrows, as read-only int64 columns.

    Block b is complete on sizes[b] vertices, every ordered pair of them,
    loops included, carrying weights[b].  Each row (src, dst, d) of the
    (E, 3) `cross` puts d parallel arrows from every vertex of block src to
    every vertex of block dst.  Columns of different lengths, a `cross`
    not of shape (E, 3), a size or weight below 1, a cross entry outside
    the blocks or from a block to itself, and a cross weight below 1
    raise ValueError.
    """

    sizes: np.ndarray = ()
    weights: np.ndarray = ()
    cross: np.ndarray = ()

    def __post_init__(self):
        sizes, weights, cross = (
            np.array(a, dtype=np.int64) for a in (self.sizes, self.weights, self.cross)
        )
        if cross.shape == (0,):
            cross = cross.reshape(0, 3)
        if sizes.ndim != 1 or weights.shape != sizes.shape:
            raise ValueError(
                f"sizes and weights must be columns of one length, "
                f"got shapes {sizes.shape} and {weights.shape}"
            )
        if cross.ndim != 2 or cross.shape[1] != 3:
            raise ValueError(f"cross must have shape (E, 3), got {cross.shape}")
        small = (sizes < 1) | (weights < 1)
        if small.any():
            b = small.argmax()
            raise ValueError(
                f"block {b} needs size >= 1 and weight >= 1, got {sizes[b]} and {weights[b]}"
            )
        src, dst, d = cross.T
        bad = (src < 0) | (src >= sizes.size) | (dst < 0) | (dst >= sizes.size) | (src == dst)
        if bad.any():
            raise ValueError(f"bad cross entry {tuple(cross[bad.argmax()].tolist())}")
        if (d < 1).any():
            raise ValueError(f"cross weight must be at least 1, got {d[(d < 1).argmax()]}")
        for name, column in (("sizes", sizes), ("weights", weights), ("cross", cross)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n_vertices(self) -> int:
        return int(self.sizes.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuiverForm):
            return NotImplemented
        return (
            np.array_equal(self.sizes, other.sizes)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.cross, other.cross)
        )


# --- the cyclic-subgroup lattice ----------------------------------------


def lattice_form(coloring_set: ColoringSet) -> tuple[QuiverForm, np.ndarray]:
    """The blocks of build_quiver(coloring_set, affine_endomorphisms(n)),
    read off the colorings by R_n alone, with no quiver.

    Returns (form, members): `form` has one block per twin class and its
    `cross` rows sorted; `members` is one read-only int64 array listing
    the colorings of each block in turn, each block's sorted, so block b
    is members[bounds[b]:bounds[b + 1]] for the bounds 0 and
    np.cumsum(form.sizes).  Blocks are ordered by least coloring.  The
    blocks are the quiver's twin classes, the vertices with one out-row
    and one in-column, which are the coarsest complete blocks of uniform
    weights.

    The colorings K are a subgroup of Z_n^strands and K = K0 + Delta, the
    trivial colorings Delta and K0 those colouring strand 1 with 0: the
    first N/n sorted rows.  The maps x -> ax + b sending c to d are one
    per a with a(c - c_1) = d - d_1, so each cyclic subgroup C = <g> of K0,
    of order k, is one complete block: the n phi(k) colorings c with <c - c_1> = C,
    of weight n/k, sending n/k to each block <j g> for the divisors j > 1
    of k.  The block is named by its least generator, among the u g for
    units u mod n, which is also its least coloring.  A quandle other than
    R_n raises ValueError; colorings that are not such a group raise
    InternalConsistencyError.
    """
    quandle = coloring_set.quandle
    if not isinstance(quandle, DihedralQuandle):
        raise ValueError(f"the lattice form needs colorings by R_n, got {quandle!r}")
    n, colorings = quandle.n, coloring_set.colorings
    count = len(colorings)
    if not count or count % n:
        raise InternalConsistencyError(f"{count} colorings, not a multiple of n = {n}")
    group = colorings[: count // n]
    keys = row_keys(group, n)

    def position(rows):  # the row of `group` equal to each of `rows`
        wanted = row_keys(rows, n)
        at = np.searchsorted(keys, wanted)
        if np.any(keys[np.minimum(at, keys.size - 1)] != wanted):
            raise InternalConsistencyError(
                "colorings are not a group holding the trivial colorings"
            )
        return at

    block_name = position((colorings - colorings[:, :1]) % n)
    name = np.arange(len(group))
    for u in range(2, n):
        if math.gcd(u, n) == 1:
            np.minimum(name, position(u * group % n), out=name)
    names, block_of = np.unique(name[block_name], return_inverse=True)
    generators = group[names]
    orders = n // np.gcd(n, np.gcd.reduce(generators, axis=1))
    # block src sends to the block of <j g> for each divisor j > 1 of its order
    divisors = np.array([j for j in range(2, n + 1) if n % j == 0], dtype=np.int64)
    src, j = np.nonzero(orders[:, None] % divisors == 0)
    dst = np.searchsorted(names, name[position(divisors[j, None] * generators[src] % n)])
    cross = np.column_stack((src, dst, n // orders[src]))[np.lexsort((dst, src))]
    form = QuiverForm(np.bincount(block_of), n // orders, cross)
    members = np.argsort(block_of, kind="stable").astype(np.int64, copy=False)
    members.flags.writeable = False
    return form, members


# --- comparison ----------------------------------------------------------


def isomorphic(quiver: WeightedQuiver, form: QuiverForm, members) -> np.ndarray | None:
    """The mapping of the k-th vertex of members, as lattice_form lists
    them block by block, to vertex k of the form's blocks laid end to end,
    when it carries `quiver` onto that layout arrow for arrow and weight
    for weight; else None, as it is when `members` is not a permutation of
    the quiver's vertices or the form is on another number of them.  The
    mapping is a read-only int64 array, mapping[v] the layout vertex of v.

    The check is O(E) and needs no sort of the arrows.  Each arrow (u, v, w)
    must find its blocks' pair among the form's entries (a block to itself
    at its weight, and the cross entries, repeated ones summed), at that
    entry's weight, and each row must hold as many arrows as the blocks its
    block sends to hold vertices.  A row's targets are distinct, so by
    pigeonhole they are then every vertex of those blocks: the rows are the
    layout's rows exactly.
    """
    n, sizes, k = quiver.n_vertices, form.sizes, form.sizes.size
    members = np.asarray(members, dtype=np.int64)
    if members.shape != (n,) or form.n_vertices != n or np.any((members < 0) | (members >= n)):
        return None
    mapping = np.full(n, -1, dtype=np.int64)
    mapping[members] = np.arange(n)
    if np.any(mapping < 0):  # a vertex listed twice leaves another unlisted
        return None
    block_of = np.empty(n, dtype=np.int64)
    block_of[members] = np.repeat(np.arange(k), sizes)
    # the form's entries (a, b, d), each block to itself and then the cross
    # rows, keyed a * k + b, repeated keys summed
    own = np.arange(k)
    a, b, d = np.concatenate((np.column_stack((own, own, form.weights)), form.cross)).T
    entry_keys, entry = np.unique(a * k + b, return_inverse=True)
    entry_weight = np.zeros(entry_keys.size, dtype=np.int64)
    np.add.at(entry_weight, entry, d)
    # a row of block a holds one arrow to each vertex of each block it sends to
    row_length = np.zeros(k, dtype=np.int64)
    np.add.at(row_length, entry_keys // k, sizes[entry_keys % k])
    if not np.array_equal(np.diff(quiver.indptr), row_length[block_of]):
        return None
    arrow_keys = block_of[quiver.sources()] * k + block_of[quiver.dst]
    at = np.minimum(np.searchsorted(entry_keys, arrow_keys), entry_keys.size - 1)
    if np.array_equal(entry_keys[at], arrow_keys) and np.array_equal(
        entry_weight[at], quiver.weight
    ):
        mapping.flags.writeable = False
        return mapping
    return None
