"""Finite quandles, the dihedral family, and its affine endomorphisms.

A quandle of size m holds its Cayley table as one read-only (m, m) int64
array.  A family of k endomorphisms is one read-only (k, m) int64 array
whose row lists a map's images of 0..m-1; `quivers.build_quiver` checks
each row against the quandle of the colorings it acts on.  The n^2
affine maps x -> a*x + b are all the endomorphisms of R_n; the tests
check this against an exhaustive search.
"""

from __future__ import annotations

import numpy as np


class FiniteQuandle:
    """A finite magma given by its Cayley table, table[x, y] = x * y.

    `table` is a read-only (m, m) int64 array.  Construction validates
    shape and element range only, not the quandle axioms, so tables that
    break them can still be built; `inverse_table` checks bijectivity on
    demand.
    """

    def __init__(self, table):
        table = np.array(table, dtype=np.int64)
        if not table.size:
            raise ValueError("table must be nonempty")
        m = len(table)
        if table.shape != (m, m):
            raise ValueError("table must be square")
        outside = (table < 0) | (table >= m)
        if outside.any():
            raise ValueError(f"table entry {table[outside][0]} outside 0..{m - 1}")
        table.flags.writeable = False
        self.size = m
        self.table = table
        self._inverse: np.ndarray | None = None

    @property
    def inverse_table(self) -> np.ndarray:
        """inverse_table[x, y] is the unique z with z * y == x, as a read-only array."""
        if self._inverse is None:
            m, t = self.size, self.table
            # right translation by y is a bijection when column y is a permutation
            broken = np.flatnonzero((np.sort(t, axis=0) != np.arange(m)[:, None]).any(axis=0))
            if broken.size:
                raise ValueError(f"right translation by {broken[0]} is not a bijection")
            inverse = np.empty_like(t)
            inverse[t, np.arange(m)] = np.arange(m)[:, None]
            inverse.flags.writeable = False
            self._inverse = inverse
        return self._inverse

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size})"


class DihedralQuandle(FiniteQuandle):
    """Z_n with x * y = 2y - x; involutive, so inverse_table equals table."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        self.n = n
        x = np.arange(n)
        super().__init__((2 * x - x[:, None]) % n)


def affine_endomorphisms(n: int) -> np.ndarray:
    """All n^2 maps x -> a*x + b mod n, as a read-only (n^2, n) image array.

    Row b*n + c lists phi(0), ..., phi(n - 1) for the map with phi(0) = b
    and phi(1) = c, that is a = c - b, so the rows are in lexicographic
    order.  Every affine map is an endomorphism of the dihedral quandle,
    since a*(2y - x) + b == 2*(a*y + b) - (a*x + b).
    """
    if n < 1:
        raise ValueError(f"modulus must be at least 1, got {n}")
    x = np.arange(n)
    # images[b, c, x] = b + (c - b)*x mod n
    images = (x[:, None, None] + (x[None, :, None] - x[:, None, None]) * x) % n
    images = images.reshape(n * n, n)
    images.flags.writeable = False
    return images

