"""Finite quandles and the dihedral family.

A quandle of size m holds its Cayley table as one read-only (m, m) int64
array; R_n builds it at the first read.  The n^2 affine maps
x -> a*x + b are all the endomorphisms of R_n, since
a*(2y - x) + b == 2*(a*y + b) - (a*x + b); `quivers.build_quiver` applies
them through their coefficients, and the tests check that they are all
against an exhaustive search.
"""

from __future__ import annotations

import functools

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

    @functools.cached_property
    def inverse_table(self) -> np.ndarray:
        """inverse_table[x, y] is the unique z with z * y == x, as a read-only array."""
        m, t = self.size, self.table
        # right translation by y is a bijection when column y is a permutation
        broken = np.flatnonzero((np.sort(t, axis=0) != np.arange(m)[:, None]).any(axis=0))
        if broken.size:
            raise ValueError(f"right translation by {broken[0]} is not a bijection")
        inverse = np.empty_like(t)
        inverse[t, np.arange(m)] = np.arange(m)[:, None]
        inverse.flags.writeable = False
        return inverse

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size})"


class DihedralQuandle(FiniteQuandle):
    """Z_n with x * y = 2y - x; involutive, so inverse_table equals table (built at first read)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        self.n = self.size = n

    @functools.cached_property
    def table(self) -> np.ndarray:
        x = np.arange(self.n)
        table = (2 * x - x[:, None]) % self.n
        table.flags.writeable = False
        return table

