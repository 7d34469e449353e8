"""The dihedral quandles R_n.

R_n holds its Cayley table as one read-only (n, n) int64 array, built at
the first read.  The n^2 affine maps x -> a*x + b are all the
endomorphisms of R_n, since a*(2y - x) + b == 2*(a*y + b) - (a*x + b);
`quivers.build_quiver` applies them through their coefficients, and the
tests check that they are all against an exhaustive search.
"""

from __future__ import annotations

import functools

import numpy as np


class DihedralQuandle:
    """R_n: Z_n with x * y = 2y - x, table[x, y] = x * y; `size` is n."""

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

    def __repr__(self):
        return f"DihedralQuandle(size={self.size})"
