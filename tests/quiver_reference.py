"""Reference quivers used by the tests: one dict of target -> weight per
row, a form expanded to its quiver, and the paper's closed-form shapes
keyed by the coloring count.

`WeightedQuiver` holds stored CSR rows, one per translation class from
`build_quiver` and one per vertex from `from_arrows` here, which builds
the tests' quivers from arrow lists; `weight_triples` reads them back
arrow by arrow through `arrows()`.  `build_quiver` lifts the quiver from
the scalings of K0 and its translates; the build here, which applies
each map of an image array to all N colorings and finds every image
among them, is the one it must agree with.  `isomorphic` checks the
stored rows against a form's columns and each vertex's block label in
O(N + E/n); `reference_isomorphic` lays the blocks out end to end and
compares the arrows with `realize(form)`, the form expanded arrow by
arrow, in one sorted comparison.  `lattice_form` reads the quiver's
blocks off the cyclic subgroups of the colorings;
`quiver_form_for_count` is the paper's table of four shapes it must
agree with wherever that table has an answer.
"""

import math
from itertools import groupby

import numpy as np

from quandlequiver.quivers import QuiverForm, WeightedQuiver


class DictQuiver:
    """Weighted directed graph on vertices 0..n_vertices-1, one sparse dict per row."""

    def __init__(self, n_vertices):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n_vertices = n_vertices
        self.rows = [dict() for _ in range(n_vertices)]

    @classmethod
    def of(cls, quiver):
        """The rows of a WeightedQuiver as dicts."""
        out = cls(quiver.n_vertices)
        for i, j, w in weight_triples(quiver):
            out.add(i, j, w)
        return out

    def add(self, i, j, w=1):
        if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
            raise ValueError(f"edge ({i}, {j}) outside 0..{self.n_vertices - 1}")
        if w < 0:
            raise ValueError(f"weight must be nonnegative, got {w}")
        if w:
            row = self.rows[i]
            row[j] = row.get(j, 0) + w


def from_arrows(n, src, dst, weight, labels=None):
    """The quiver on n vertices with arrows src[k] -> dst[k] of weight
    weight[k], one stored row per vertex, vertex v labelled labels[v], or
    (v,) when no labels are given.

    Arrows with the same endpoints are summed and zero weights dropped.
    A vertex outside 0..n-1, a negative weight, or labels that are not
    n rows of one width raise ValueError.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    labels = np.arange(n).reshape(n, 1) if labels is None else np.asarray(labels, dtype=np.int64).view()
    if not n:
        labels = labels.reshape(0, 0)  # no row carries a width, as in JSON
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
    row = np.arange(n)
    for a in (row, indptr, dst, weight):
        a.flags.writeable = False
    return WeightedQuiver(n, row, indptr, dst, weight, labels)


def weight_triples(quiver):
    """(source, target, weight) of each arrow of a WeightedQuiver, in sorted order."""
    return list(zip(*(column.tolist() for column in quiver.arrows())))


def dense(quiver):
    """The N x N weight matrix of a WeightedQuiver."""
    out = np.zeros((quiver.n_vertices, quiver.n_vertices), dtype=np.int64)
    src, dst, weight = quiver.arrows()
    out[src, dst] = weight
    return out


def build_quiver(coloring_set, endos):
    """The quiver with one arrow f -> phi . f per coloring f and endomorphism phi.

    `endos` is an image array, one row per map.  All k maps' N images are
    read as base-m numbers, int64 when every row fits and Python ints
    otherwise, and found among the colorings' numbers; equal arrows are
    counted into one weight.
    """
    colorings = coloring_set.colorings
    m, (count, width) = coloring_set.n, colorings.shape
    key_type = np.int64 if m**width < 2**63 else object
    place = np.array([m**j for j in reversed(range(width))], dtype=key_type)
    keys = colorings.astype(place.dtype) @ place
    order = np.argsort(keys)
    keys = keys[order]
    endos = np.asarray(endos)
    images = endos[:, colorings]  # images[e, k] is map e applied to coloring k
    wanted = images.astype(place.dtype) @ place
    at = np.minimum(np.searchsorted(keys, wanted), count - 1)
    missing = keys[at] != wanted
    if missing.any():
        e, k = np.unravel_index(missing.argmax(), missing.shape)
        raise ValueError(
            f"image {tuple(images[e, k].tolist())} of coloring "
            f"{tuple(colorings[k].tolist())} under {endos[e].tolist()} is not itself a coloring"
        )
    arrows = np.arange(count) * count + order[at]
    arrows, weight = np.unique(arrows, return_counts=True)
    src, dst = np.divmod(arrows, max(count, 1))
    return from_arrows(count, src, dst, weight, labels=colorings)


def realize(form):
    """Expand a form to an explicit quiver, its blocks laid end to end in order."""
    sizes = form.sizes
    starts = np.cumsum(sizes) - sizes
    # a block's own weight is an entry from it to itself
    own = np.arange(sizes.size)
    inside = np.column_stack((own, own, form.weights))
    a, b, d = np.concatenate((inside, form.cross)).T
    # entry e holds sizes[a] * sizes[b] arrows; arrow t of it runs from
    # row t // sizes[b] of block a to column t % sizes[b] of block b
    span = sizes[a] * sizes[b]
    entry = np.repeat(np.arange(span.size), span)
    t = np.arange(entry.size) - np.repeat(np.cumsum(span) - span, span)
    width = sizes[b][entry]
    src = starts[a][entry] + t // width
    dst = starts[b][entry] + t % width
    return from_arrows(form.n_vertices, src, dst, d[entry])


def reference_isomorphic(quiver, form, block_of):
    """Whether laying the vertices out by their blocks, block_of[v] the
    block of v, each block's vertices in order, carries `quiver` onto
    realize(form) arrow for arrow and weight for weight (one sorted array
    comparison).  False when `block_of` does not put sizes[b] vertices in
    each block b of the form, and nowhere else.
    """
    n = quiver.n_vertices
    block_of = np.asarray(block_of, dtype=np.int64)
    layout = np.repeat(np.arange(form.sizes.size), form.sizes)
    if block_of.ndim != 1 or not np.array_equal(np.sort(block_of), layout) or layout.size != n:
        return False
    mapping = np.empty(n, dtype=np.int64)
    mapping[np.argsort(block_of, kind="stable")] = np.arange(n)
    target = realize(form)
    src, dst, weight = quiver.arrows()
    target_src, target_dst, target_weight = target.arrows()
    key = mapping[src] * n + mapping[dst]
    order = np.argsort(key)
    return np.array_equal(key[order], target_src * n + target_dst) and np.array_equal(
        weight[order], target_weight
    )


def is_prime(n):
    """Trial division: n has no divisor in 2..isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def quiver_form_for_count(p, n, count):
    """The paper's quiver of T(p, q) by R_n, as a function of the count.

    Every shape is the trivial block K_n of weight n, first, plus `copies`
    blocks of one `size` and `weight`, each of which sends that weight to
    the trivial block.  ValueError for p not prime, for the count n^p with
    n composite and for a count that matches no shape.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if count == n:
        copies, size, weight = 0, 1, 1
    elif count == p * n:
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
    sizes, weights = [n] + [size] * copies, [n] + [weight] * copies
    return QuiverForm(sizes, weights, [(b, 0, weight) for b in range(1, copies + 1)])


def runs(form):
    """(copies, size, weight) of each run of equal consecutive blocks of a form."""
    blocks = zip(form.sizes.tolist(), form.weights.tolist())
    return tuple((len(list(run)), size, weight) for (size, weight), run in groupby(blocks))
