"""Reference quandle checks used by the tests: a Cayley table of any
finite magma, the dihedral operation on single elements and R_n's table
filled from it, the kei law, the quandle axioms checked element by
element, every endomorphism by exhaustive search, the n^2 affine maps of
R_n as an image array, and an audit of the affine maps against that
search.  `quivers.build_quiver` applies the affine maps through their
coefficients a and b; these are the maps it must agree with, and the
search shows that they are all of End(R_n).  Nothing here reads the
package, so a wrong table there is not copied into the references."""

import functools
import warnings
from dataclasses import dataclass

import numpy as np


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


class CayleyTable:
    """A finite magma by its Cayley table, table[x, y] = x * y, for the
    checks below and for tests that need a table other than R_n's; the
    quandle axioms are not checked."""

    def __init__(self, table):
        self.table = np.array(table, dtype=np.int64)
        self.size = len(self.table)

    def __repr__(self):
        return f"CayleyTable(size={self.size})"


class NonAffineEndomorphismWarning(UserWarning):
    """Brute-force search found endomorphisms outside the affine family."""


def dihedral_op(n: int, x: int, y: int) -> int:
    """x * y = 2y - x mod n."""
    if n < 1:
        raise ValueError(f"modulus must be at least 1, got {n}")
    if not 0 <= x < n or not 0 <= y < n:
        raise ValueError(f"elements ({x}, {y}) outside 0..{n - 1}")
    return (2 * y - x) % n


@functools.lru_cache(maxsize=32)
def dihedral(n: int) -> CayleyTable:
    """R_n as a read-only CayleyTable, filled element by element from dihedral_op."""
    quandle = CayleyTable([[dihedral_op(n, x, y) for y in range(n)] for x in range(n)])
    quandle.table.flags.writeable = False
    return quandle


def is_involutive(q) -> bool:
    """(x*y)*y == x for all pairs."""
    t = q.table.tolist()
    return all(
        t[t[x][y]][y] == x for x in range(q.size) for y in range(q.size)
    )


def verify_quandle_axioms(q) -> AxiomReport:
    """The three quandle axioms checked by loops, with witnesses.

    Witnesses: (x, y, z) where (x*y)*z != (x*z)*(y*z); (x1, x2, y) where
    x1*y == x2*y with x1 != x2; (x,) where x*x != x.
    """
    t = q.table.tolist()
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


def brute_force_endomorphisms(q) -> np.ndarray:
    """All endomorphisms of q by pruned depth-first search over image tables.

    Returns a read-only (k, m) image array in lexicographic row order.  The
    naive search space is m**m, but pruning each partial map against every
    pair it already fixes keeps the visit count small for R_n: n = 30 takes
    well under a second.
    """
    m = q.size
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


def audit_affine_completeness(n: int):
    """Compare brute-force endomorphisms of R_n against the affine family.

    Returns the non-affine surplus (empty whenever the families agree) and
    raises a NonAffineEndomorphismWarning when the surplus is nonempty, so
    extra endomorphisms are surfaced rather than silently dropped.
    """
    brute = brute_force_endomorphisms(dihedral(n))
    affine = set(map(tuple, affine_endomorphisms(n).tolist()))
    brute = list(map(tuple, brute.tolist()))
    missing = affine - set(brute)
    if missing:
        raise_internal = ", ".join(map(str, sorted(missing)))
        raise AssertionError(f"brute-force search missed affine maps: {raise_internal}")
    surplus = [e for e in brute if e not in affine]
    if surplus:
        warnings.warn(
            f"R_{n} has {len(surplus)} endomorphisms outside the affine family",
            NonAffineEndomorphismWarning,
            stacklevel=2,
        )
    return surplus
