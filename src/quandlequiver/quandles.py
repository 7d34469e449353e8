"""Finite quandles, the dihedral family, and their endomorphisms.

A quandle of size m holds its Cayley table as one read-only (m, m) int64
array.  A family of k endomorphisms is one read-only (k, m) int64 array
whose row lists a map's images of 0..m-1; `quivers.build_quiver` checks
each row against the quandle of the colorings it acts on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import endo_cap
from .errors import CapExceededError, count_text


class FiniteQuandle:
    """A finite magma given by its Cayley table, table[x, y] = x * y.

    `table` is a read-only (m, m) int64 array.  Construction validates
    shape and element range only, so deliberately broken tables can still
    be built and fed to verify_quandle_axioms; `inverse_table` checks
    bijectivity on demand.
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


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: tuple | None


@dataclass(frozen=True)
class AxiomReport:
    right_distributive: AxiomCheck
    invertible: AxiomCheck
    idempotent: AxiomCheck

    @property
    def all_pass(self) -> bool:
        return (
            self.right_distributive.passed
            and self.invertible.passed
            and self.idempotent.passed
        )


# triples compared per batch of the distributive law: 2^16 keeps each
# batch's arrays near 1 MB
_TRIPLES = 1 << 16


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """The index of bad's first True entry in row-major order, or None."""
    k = int(bad.argmax())
    return tuple(int(i) for i in np.unravel_index(k, bad.shape)) if bad.flat[k] else None


def verify_quandle_axioms(q: FiniteQuandle) -> AxiomReport:
    """Exhaustively check the three quandle axioms, with witnesses.

    Witnesses: the first (x, y, z) where (x*y)*z != (x*z)*(y*z); for the
    first y with a collision, the first x2 and then the first x1 < x2 with
    x1*y == x2*y, as (x1, x2, y); the first (x,) where x*x != x.
    """
    t, m = q.table, q.size
    elements = np.arange(m)

    distributive = None
    step = max(1, _TRIPLES // (m * m))
    for start in range(0, m, step):
        xy = t[start : start + step]
        # (x*y)*z against (x*z)*(y*z) for a batch of x, indexed (x, y, z)
        distributive = _first(t[xy] != t[xy[:, None, :], t])
        if distributive is not None:
            x, y, z = distributive
            distributive = (start + x, y, z)
            break

    # earlier[x, y] is the least x1 with x1*y == x*y
    first = np.full((m, m), m)
    np.minimum.at(first, (t, elements), elements[:, None])
    earlier = first[t, elements]
    invertible = _first((earlier < elements[:, None]).T)  # indexed (y, x2)
    if invertible is not None:
        y, x2 = invertible
        invertible = (int(earlier[x2, y]), x2, y)

    idempotent = _first(np.diagonal(t) != elements)
    return AxiomReport(
        *(AxiomCheck(w is None, w) for w in (distributive, invertible, idempotent))
    )


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


def brute_force_endomorphisms(q: FiniteQuandle, cap: int | None = None) -> np.ndarray:
    """All endomorphisms by pruned depth-first search over image tables.

    Returns a read-only (k, m) image array in lexicographic row order.
    The naive search space is size**size, checked against the cap up
    front; pruning keeps the actual visit count far smaller.
    """
    m = q.size
    limit = endo_cap() if cap is None else cap
    naive, power = m**m, f"{m}^{m}"
    if naive > limit:
        raise CapExceededError(
            f"brute-force search space {count_text(naive, power)} exceeds the cap {limit}",
            count=naive,
            power=power,
        )
    t = q.table.tolist()
    images = [-1] * m
    found: list[list[int]] = []

    def consistent(x: int) -> bool:
        fx = images[x]
        for y in range(m):
            fy = images[y]
            if fy < 0:
                continue
            z = t[x][y]
            if images[z] >= 0 and images[z] != t[fx][fy]:
                return False
            z = t[y][x]
            if images[z] >= 0 and images[z] != t[fy][fx]:
                return False
        return True

    def search(x: int):
        if x == m:
            found.append(images.copy())
            return
        for v in range(m):
            images[x] = v
            if consistent(x):
                search(x + 1)
        images[x] = -1

    search(0)
    endos = np.array(found, dtype=np.int64).reshape(-1, m)
    endos.flags.writeable = False
    return endos
