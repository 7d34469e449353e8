"""Reference quandle checks used by the tests: the dihedral operation on
single elements, the kei law, the quandle axioms and the homomorphism law
checked element by element, every endomorphism by exhaustive search, and
an audit of the affine endomorphisms against that search."""

import warnings
from dataclasses import dataclass

import numpy as np

from quandlequiver.quandles import DihedralQuandle, affine_endomorphisms


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


class NonAffineEndomorphismWarning(UserWarning):
    """Brute-force search found endomorphisms outside the affine family."""


def dihedral_op(n: int, x: int, y: int) -> int:
    """x * y = 2y - x mod n."""
    if n < 1:
        raise ValueError(f"modulus must be at least 1, got {n}")
    if not 0 <= x < n or not 0 <= y < n:
        raise ValueError(f"elements ({x}, {y}) outside 0..{n - 1}")
    return (2 * y - x) % n


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


def first_broken_pair(q, images):
    """The first (x, y) with phi(x*y) != phi(x)*phi(y), pair by pair, or None."""
    t = q.table.tolist()
    for x in range(q.size):
        for y in range(q.size):
            if images[t[x][y]] != t[images[x]][images[y]]:
                return x, y
    return None


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


def audit_affine_completeness(n: int):
    """Compare brute-force endomorphisms of R_n against the affine family.

    Returns the non-affine surplus (empty whenever the families agree) and
    raises a NonAffineEndomorphismWarning when the surplus is nonempty, so
    extra endomorphisms are surfaced rather than silently dropped.
    """
    q = DihedralQuandle(n)
    brute = brute_force_endomorphisms(q)
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
