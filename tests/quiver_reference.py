"""Reference quivers used by the tests: one dict of target -> weight per
row, a form expanded to its quiver, and the paper's closed-form shapes
keyed by the coloring count.

`WeightedQuiver` holds stored CSR rows, one per vertex from `from_arrows`
and one per translation class from `build_quiver`, read back arrow by
arrow through `arrows()` by `weight_triples`, and `build_quiver` lifts
the quiver from the scalings of K0 and its translates; these are the
direct row-dict quiver and the build they must agree with, which applies
each map of an image array to all N colorings and finds every image among
them.  `isomorphic` checks the arrows against a form's columns in O(E); `reference_isomorphic` compares them with `realize(form)`,
the form expanded arrow by arrow, in one sorted comparison.
`lattice_form` reads the quiver's blocks off the cyclic subgroups of the
colorings; `quiver_form_for_count` is the paper's table of four shapes it
must agree with wherever that table has an answer.
"""

from itertools import groupby

import numpy as np

from quandlequiver.counting import is_prime
from quandlequiver.errors import InternalConsistencyError
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
    m, (count, width) = coloring_set.quandle.size, colorings.shape
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
        raise InternalConsistencyError(
            f"image {tuple(images[e, k].tolist())} of coloring "
            f"{tuple(colorings[k].tolist())} under {endos[e].tolist()} is not itself a coloring"
        )
    arrows = np.arange(count) * count + order[at]
    arrows, weight = np.unique(arrows, return_counts=True)
    src, dst = np.divmod(arrows, max(count, 1))
    return WeightedQuiver.from_arrows(count, src, dst, weight, labels=colorings)


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
    return WeightedQuiver.from_arrows(form.n_vertices, src, dst, d[entry])


def reference_isomorphic(quiver, form, members):
    """The mapping of members[k] to vertex k of realize(form), as an int64
    array, when it carries `quiver` onto realize(form) arrow for arrow and
    weight for weight (one sorted array comparison); else None, as it is
    when `members` is not a permutation of the vertices or the form is on
    another number of them.
    """
    n = quiver.n_vertices
    members = np.asarray(members, dtype=np.int64)
    if form.n_vertices != n or not np.array_equal(np.sort(members), np.arange(n)):
        return None
    mapping = np.empty(n, dtype=np.int64)
    mapping[members] = np.arange(n)
    target = realize(form)
    src, dst, weight = quiver.arrows()
    target_src, target_dst, target_weight = target.arrows()
    key = mapping[src] * n + mapping[dst]
    order = np.argsort(key)
    if np.array_equal(key[order], target_src * n + target_dst) and np.array_equal(
        weight[order], target_weight
    ):
        return mapping
    return None


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
