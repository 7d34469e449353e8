"""Coloring quivers: construction, block forms, blocks, and comparison.

The quiver of a coloring set by R_n has one vertex per coloring and, for
each endomorphism phi of R_n, one arrow f -> phi . f; arrows with the same
endpoints merge into an integer weight, so every row sums to n^2.  The
endomorphisms are the affine maps x -> a*x + b: 0 and 1 generate R_n,
and one affine map sends them to each pair.  This module reads the
colorings only through their quotient by translation,
`ColoringSet.quotient`: K0, the colorings with strand 1 coloured 0, holds
one coloring c0 of each class c0 + t*1, and the quotient tables the
translates of K0, each coloring's class and the scalings a*c0 in K0.
`build_quiver` lifts the quiver from the scalings: one row per class,
spread over the n translates of each image, which the `WeightedQuiver`
stores once for all n translates of c0.

A `QuiverForm` (complete blocks and uniform cross arrows) is three int64
columns: block sizes, block weights and (src, dst, d) cross rows.
`lattice_form`, the one reader of block structure, reads it off the same
quotient, with each coloring's block label: it needs no quiver.
`isomorphic` checks a quiver's stored rows against a form and those
labels, sorting only the N (stored row, block) pairs and expanding no
form: each arrow must join two blocks the form joins, at the form's
weight, and each row must hold one arrow per vertex of the blocks its
block reaches, which by pigeonhole its distinct targets then are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colorings import ColoringSet
from .errors import InternalConsistencyError


class WeightedQuiver:
    """Immutable weighted directed graph on vertices 0..n_vertices-1, as stored CSR rows.

    Vertex v's arrows go to dst[indptr[r]:indptr[r + 1]] of its stored row
    r = row[v], strictly increasing, with the positive weights
    weight[indptr[r]:indptr[r + 1]]; the arrays are int64 and read-only.
    `labels` is a read-only int64 array naming vertex i by its coloring
    labels[i].  `build_quiver` makes one, with one stored row per
    translation class.
    """

    __slots__ = ("n_vertices", "row", "indptr", "dst", "weight", "labels")

    def __init__(self, n_vertices: int, row, indptr, dst, weight, labels):
        # trusted: the caller has made the arrays canonical
        self.n_vertices = n_vertices
        self.row, self.indptr, self.dst, self.weight = row, indptr, dst, weight
        self.labels = labels

    def arrows(self):
        """The (src, dst, weight) columns of the quiver's arrows, in order."""
        at, lengths = _row_positions(self.indptr, self.row)
        return np.repeat(np.arange(self.n_vertices), lengths), self.dst[at], self.weight[at]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedQuiver):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and np.array_equal(self.labels, other.labels)
            and all(map(np.array_equal, self.arrows(), other.arrows()))
        )

    def __repr__(self):
        edges = np.diff(self.indptr)[self.row].sum()
        return f"WeightedQuiver({self.n_vertices} vertices, {edges} weighted edges)"


def _row_positions(indptr: np.ndarray, rows: np.ndarray):
    """The positions of the arrows of stored rows `rows`, in turn, and their lengths."""
    lengths = indptr[rows + 1] - indptr[rows]
    at = np.repeat(indptr[rows] - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(at.size)
    return at, lengths


def build_quiver(coloring_set: ColoringSet) -> WeightedQuiver:
    """The quiver of the colorings by R_n under its n^2 affine maps
    x -> a*x + b, all of End(R_n), lifted from their action on K0.

    The map (a, b) sends the coloring c0 + t*1 (`ColoringSet.quotient`) to
    a*c0 + (a*t + b)*1, so for each a its n maps send every translate of
    c0 to each translate of a*c0 once.  All n translates of c0 therefore
    share one row, sorted once from the quotient's scalings and
    translates: one arrow to each translate of each distinct a*c0,
    weighted by the number of a giving it.  The quotient's ValueError
    passes through.  Structural laws that hold by construction are
    re-checked on every build.
    """
    translate, class_of, scaled = coloring_set.quotient
    n, count = coloring_set.n, coloring_set.count
    # a run of one position in a class's sorted images is one image d0,
    # weighted by the run's length
    images = np.sort(scaled.T, axis=1)
    new_run = np.ones(images.shape, dtype=bool)
    new_run[:, 1:] = images[:, 1:] != images[:, :-1]
    heads = np.flatnonzero(new_run)
    owner, image, mult = heads // n, images.ravel()[heads], np.diff(heads, append=images.size)
    # each class's row: one arrow to each translate of each of its images, in order
    targets = translate[:, image]
    order = np.argsort(owner * count + targets, axis=None)
    dst, weight = targets.ravel()[order], mult[order % heads.size]
    indptr = np.append(0, np.cumsum(n * np.bincount(owner, minlength=scaled.shape[1])))
    for array in (indptr, dst, weight):
        array.flags.writeable = False
    # each class's row is sorted and merged: the arrays are already canonical
    quiver = WeightedQuiver(count, class_of, indptr, dst, weight, coloring_set.colorings)
    _check_structure(quiver, coloring_set)
    return quiver


def _check_structure(quiver: WeightedQuiver, coloring_set: ColoringSet):
    n = coloring_set.n
    sums = np.zeros(quiver.dst.size + 1, dtype=np.int64)
    np.cumsum(quiver.weight, out=sums[1:])
    sums = np.diff(sums[quiver.indptr])[quiver.row]
    bad = np.flatnonzero(sums != n * n)
    if bad.size:
        i = bad[0]
        raise InternalConsistencyError(f"row {i} sums to {sums[i]}, expected {n * n}")
    # the arrows of each distinct stored row of the trivial colorings, read
    # from a trivial vertex holding it; a built quiver's share one row
    trivial = coloring_set.trivial_indices
    position = np.full(quiver.n_vertices, -1)
    position[trivial] = np.arange(trivial.size)
    rows, first = np.unique(quiver.row[trivial], return_index=True)
    at, lengths = _row_positions(quiver.indptr, rows)
    row_of = np.repeat(np.arange(rows.size), lengths)
    dst, weight = quiver.dst[at], quiver.weight[at]
    leaving = np.flatnonzero(position[dst] < 0)
    if leaving.size:
        k = leaving[0]
        raise InternalConsistencyError(
            f"arrow from trivial coloring {trivial[first[row_of[k]]]} to nontrivial {dst[k]}"
        )
    # with the full affine family over R_n, each of these rows sends weight
    # exactly n to each trivial coloring
    block = np.zeros(rows.size * trivial.size, dtype=np.int64)
    np.add.at(block, row_of * trivial.size + position[dst], weight)
    bad = np.flatnonzero(block != n)
    if bad.size:
        r, b = divmod(bad[0], trivial.size)
        raise InternalConsistencyError(
            f"trivial block weight at ({trivial[first[r]]}, {trivial[b]}) is "
            f"{block[bad[0]]}, expected {n}"
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
    """The blocks of build_quiver(coloring_set), read off the colorings by
    R_n alone, with no quiver.

    Returns (form, block_of): `form` has one block per twin class (the
    vertices with one out-row and one in-column, the coarsest complete
    blocks of uniform weights), blocks ordered by least coloring, and its
    `cross` rows sorted; `block_of` is a read-only int64 array, block_of[v]
    the block of coloring v.

    The colorings are K0 + Delta (`ColoringSet.quotient`), and the maps
    x -> ax + b sending c to d are one per a with a(c - c_1) = d - d_1.  So
    each cyclic subgroup C = <g> of K0, of order k, is one complete block:
    the n phi(k) colorings c with <c - c_1> = C, of weight n/k, sending n/k
    to each block <j g> for the divisors j > 1 of k.  The block is named
    by its least generator, the least of the u g for units u mod n, which
    is also its least coloring.  The quotient's ValueError passes through.
    """
    _, class_of, scaled = coloring_set.quotient
    n = coloring_set.n
    name = scaled[np.gcd(np.arange(n), n) == 1].min(axis=0)
    names, block_of = np.unique(name[class_of], return_inverse=True)
    generators = coloring_set.colorings[names]
    orders = n // np.gcd(n, np.gcd.reduce(generators, axis=1))
    # block src sends to the block of <j g> for each divisor j > 1 of its order
    divisors = np.array([j for j in range(2, n + 1) if n % j == 0], dtype=np.int64)
    src, j = np.nonzero(orders[:, None] % divisors == 0)
    dst = np.searchsorted(names, name[scaled[divisors[j] % n, names[src]]])
    cross = np.column_stack((src, dst, n // orders[src]))[np.lexsort((dst, src))]
    block_of.flags.writeable = False
    return QuiverForm(np.bincount(block_of), n // orders, cross), block_of


# --- comparison ----------------------------------------------------------


def isomorphic(quiver: WeightedQuiver, form: QuiverForm, block_of) -> bool:
    """Whether `quiver` is the quiver of the form's blocks, vertex v in
    block block_of[v], arrow for arrow and weight for weight.  False, too,
    when `block_of` is not one block in 0..k-1 per vertex, for the form's
    k blocks, or does not put sizes[b] vertices in block b.

    The check reads each stored row once per block whose vertices read it,
    O(N + E/n) on a built quiver, whose blocks are unions of translation
    classes, and sorts no arrows.  Each arrow (u, v, w) must find its
    blocks' pair among the form's entries (a block to itself at its
    weight, and the cross entries, repeated ones summed), at that entry's
    weight, and each row must hold as many arrows as the blocks its block
    sends to hold vertices.  A row's targets are distinct, so by pigeonhole
    they are then every vertex of those blocks: laid out block by block,
    the rows are the form's rows exactly.
    """
    n, sizes, k = quiver.n_vertices, form.sizes, form.sizes.size
    block_of = np.asarray(block_of, dtype=np.int64)
    if (
        block_of.shape != (n,)
        or np.any((block_of < 0) | (block_of >= k))
        or not np.array_equal(np.bincount(block_of, minlength=k), sizes)
    ):
        return False
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
    # each distinct (stored row, block) pair is one row of the layout
    pairs = np.sort(quiver.row * max(k, 1) + block_of)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    rows, blocks = np.divmod(pairs, max(k, 1))
    at, lengths = _row_positions(quiver.indptr, rows)
    if not np.array_equal(lengths, row_length[blocks]):
        return False
    arrow_keys = np.repeat(blocks, lengths) * k + block_of[quiver.dst[at]]
    at_entry = np.minimum(np.searchsorted(entry_keys, arrow_keys), entry_keys.size - 1)
    return np.array_equal(entry_keys[at_entry], arrow_keys) and np.array_equal(
        entry_weight[at_entry], quiver.weight[at]
    )
