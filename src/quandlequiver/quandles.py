"""Finite quandles, the dihedral family, and their endomorphisms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import endo_cap
from .errors import CapExceededError


class FiniteQuandle:
    """A finite magma given by its Cayley table, table[x][y] = x * y.

    Construction validates shape and element range only, so deliberately
    broken tables can still be built and fed to verify_quandle_axioms;
    anything needing the inverse operation checks bijectivity on demand.
    """

    def __init__(self, table):
        table = [[int(x) for x in row] for row in table]
        m = len(table)
        if m == 0:
            raise ValueError("table must be nonempty")
        for row in table:
            if len(row) != m:
                raise ValueError("table must be square")
            for x in row:
                if not 0 <= x < m:
                    raise ValueError(f"table entry {x} outside 0..{m - 1}")
        self.size = m
        self.table = tuple(tuple(row) for row in table)
        self._table_array = np.array(self.table, dtype=np.intp)
        self._table_array.flags.writeable = False
        self._inverse: tuple[tuple[int, ...], ...] | None = None

    def _check_element(self, x: int):
        if not 0 <= x < self.size:
            raise ValueError(f"element {x} outside 0..{self.size - 1}")

    def op(self, x: int, y: int) -> int:
        self._check_element(x)
        self._check_element(y)
        return self.table[x][y]

    @property
    def inverse_table(self) -> tuple[tuple[int, ...], ...]:
        """inverse_table[x][y] is the unique z with z * y == x."""
        if self._inverse is None:
            m = self.size
            inv = [[-1] * m for _ in range(m)]
            for y in range(m):
                for x in range(m):
                    z = self.table[x][y]
                    if inv[z][y] != -1:
                        raise ValueError(f"right translation by {y} is not a bijection")
                    inv[z][y] = x
            self._inverse = tuple(tuple(row) for row in inv)
        return self._inverse

    def inv_op(self, x: int, y: int) -> int:
        self._check_element(x)
        self._check_element(y)
        return self.inverse_table[x][y]

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size})"


class DihedralQuandle(FiniteQuandle):
    """Z_n with x * y = 2y - x; involutive, so inv_op coincides with op."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        self.n = n
        super().__init__([[(2 * y - x) % n for y in range(n)] for x in range(n)])


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


def verify_quandle_axioms(q: FiniteQuandle) -> AxiomReport:
    """Exhaustively check the three quandle axioms, with witnesses.

    Witnesses: (x, y, z) where (x*y)*z != (x*z)*(y*z); (x1, x2, y) where
    x1*y == x2*y with x1 != x2; (x,) where x*x != x.
    """
    t = q.table
    m = q.size

    distributive = AxiomCheck(True, None)
    for x in range(m):
        for y in range(m):
            xy = t[x][y]
            for z in range(m):
                if t[xy][z] != t[t[x][z]][t[y][z]]:
                    distributive = AxiomCheck(False, (x, y, z))
                    break
            if not distributive.passed:
                break
        if not distributive.passed:
            break

    invertible = AxiomCheck(True, None)
    for y in range(m):
        hit = [-1] * m
        for x in range(m):
            z = t[x][y]
            if hit[z] != -1:
                invertible = AxiomCheck(False, (hit[z], x, y))
                break
            hit[z] = x
        if not invertible.passed:
            break

    idempotent = AxiomCheck(True, None)
    for x in range(m):
        if t[x][x] != x:
            idempotent = AxiomCheck(False, (x,))
            break

    return AxiomReport(distributive, invertible, idempotent)


class Endomorphism:
    """A quandle homomorphism, stored by its image table.

    The homomorphism equation phi(x*y) == phi(x)*phi(y) is verified over
    all pairs at construction time; an Endomorphism cannot exist unless
    it actually is one.  For dihedral targets built from a coefficient
    pair, `affine` records (a, b) with phi(x) = a*x + b.
    """

    __slots__ = ("images", "affine")

    def __init__(self, quandle: FiniteQuandle, images, affine: tuple[int, int] | None = None):
        images = tuple(map(int, images))
        m = quandle.size
        if len(images) != m:
            raise ValueError(f"image table has length {len(images)}, expected {m}")
        if min(images) < 0 or max(images) >= m:
            v = next(v for v in images if not 0 <= v < m)
            raise ValueError(f"image {v} outside 0..{m - 1}")
        t = quandle._table_array
        phi = np.array(images, dtype=np.intp)
        # phi(x*y) against phi(x)*phi(y), all pairs at once
        lhs, rhs = phi.take(t), t.take(phi, axis=0).take(phi, axis=1)
        if lhs.tobytes() != rhs.tobytes():
            x, y = np.argwhere(lhs != rhs)[0]
            raise ValueError(f"not a homomorphism: phi({x}*{y}) != phi({x})*phi({y})")
        self.images = images
        self.affine = affine

    def __call__(self, x: int) -> int:
        return self.images[x]

    def apply(self, colors) -> tuple[int, ...]:
        images = self.images
        return tuple(images[c] for c in colors)

    def __eq__(self, other) -> bool:
        return isinstance(other, Endomorphism) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        if self.affine is not None:
            a, b = self.affine
            return f"Endomorphism(x -> {a}*x + {b})"
        return f"Endomorphism({list(self.images)})"


def affine_endomorphisms(n: int) -> list[Endomorphism]:
    """All n^2 maps x -> a*x + b mod n, in (a, b)-lexicographic order.

    Every affine map is an endomorphism of the dihedral quandle, since
    a*(2y - x) + b == 2*(a*y + b) - (a*x + b).
    """
    q = DihedralQuandle(n)
    coefficient = np.arange(n)
    # images[a][b][x] = a*x + b mod n
    images = ((coefficient[:, None, None] * coefficient + coefficient[:, None]) % n).tolist()
    return [
        Endomorphism(q, images[a][b], affine=(a, b)) for a in range(n) for b in range(n)
    ]


def _affine_coefficients(q: FiniteQuandle, images: tuple[int, ...]) -> tuple[int, int] | None:
    n = q.size
    b = images[0]
    a = (images[1] - b) % n if n > 1 else 0
    if all(images[x] == (a * x + b) % n for x in range(n)):
        return (a, b)
    return None


def brute_force_endomorphisms(q: FiniteQuandle, cap: int | None = None) -> list[Endomorphism]:
    """All endomorphisms by pruned depth-first search over image tables.

    Output is in image-table lexicographic order.  The naive search space
    is size**size, checked against the cap up front; pruning keeps the
    actual visit count far smaller.
    """
    m = q.size
    limit = endo_cap() if cap is None else cap
    naive = m**m
    if naive > limit:
        raise CapExceededError(
            f"brute-force search space {m}^{m} = {naive} exceeds the cap {limit}",
            count=naive,
        )
    t = q.table
    dihedral = isinstance(q, DihedralQuandle)
    images = [-1] * m
    found: list[Endomorphism] = []

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
            tbl = tuple(images)
            affine = _affine_coefficients(q, tbl) if dihedral else None
            found.append(Endomorphism(q, tbl, affine=affine))
            return
        for v in range(m):
            images[x] = v
            if consistent(x):
                search(x + 1)
        images[x] = -1

    search(0)
    return found
