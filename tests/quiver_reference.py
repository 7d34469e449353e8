"""Reference quiver used by the tests: one dict of target -> weight per row.

`WeightedQuiver` holds CSR arrays built in one pass by `from_arrows`, and
`build_quiver` keys the colorings in base m and finds every image row by
`searchsorted`; these are the direct row-dict quiver and per-arrow build
they must agree with.
"""

import numpy as np

from quandlequiver.errors import InternalConsistencyError
from quandlequiver.quivers import WeightedQuiver


class DictQuiver:
    """Weighted directed graph on vertices 0..n_vertices-1, one sparse dict per row."""

    def __init__(self, n_vertices, labels=None):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is not None and len(labels) != n_vertices:
            raise ValueError("labels must match the vertex count")
        self.n_vertices = n_vertices
        self.rows = [dict() for _ in range(n_vertices)]
        self.labels = labels

    @classmethod
    def of(cls, quiver):
        """The rows of a WeightedQuiver as dicts."""
        out = cls(quiver.n_vertices, quiver.labels)
        for i, j, w in quiver.weight_triples():
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

    def weight(self, i, j):
        return self.rows[i].get(j, 0)

    def weight_triples(self):
        return [(i, j, w) for i, row in enumerate(self.rows) for j, w in sorted(row.items()) if w]

    def freeze(self):
        """The same quiver as a WeightedQuiver."""
        triples = np.array(self.weight_triples(), dtype=np.int64).reshape(-1, 3)
        return WeightedQuiver.from_arrows(self.n_vertices, *triples.T, labels=self.labels)


def dense(quiver):
    """The N x N weight matrix of a WeightedQuiver."""
    out = np.zeros((quiver.n_vertices, quiver.n_vertices), dtype=np.int64)
    out[quiver.sources(), quiver.dst] = quiver.weight
    return out


def build_quiver(coloring_set, endos):
    """The quiver with one arrow f -> phi . f per coloring f and endomorphism phi."""
    colorings = list(map(tuple, coloring_set.colorings.tolist()))
    index = {c: k for k, c in enumerate(colorings)}
    quiver = DictQuiver(len(colorings), labels=colorings)
    for phi in np.asarray(endos).tolist():
        for k, f in enumerate(colorings):
            g = tuple(phi[c] for c in f)
            j = index.get(g)
            if j is None:
                raise InternalConsistencyError(
                    f"image {g} of coloring {f} under {phi} is not itself a coloring"
                )
            quiver.add(k, j)
    return quiver.freeze()
