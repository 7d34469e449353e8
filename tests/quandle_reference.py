"""Reference quandle checks used by the tests: the dihedral operation on
single elements, the kei law, and an audit of the affine endomorphisms."""

import warnings

from quandlequiver.quandles import DihedralQuandle, affine_endomorphisms, brute_force_endomorphisms


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
    t = q.table
    return all(
        t[t[x][y]][y] == x for x in range(q.size) for y in range(q.size)
    )


def audit_affine_completeness(n: int, cap: int | None = None):
    """Compare brute-force endomorphisms of R_n against the affine family.

    Returns the non-affine surplus (empty whenever the families agree) and
    raises a NonAffineEndomorphismWarning when the surplus is nonempty, so
    extra endomorphisms are surfaced rather than silently dropped.
    """
    q = DihedralQuandle(n)
    brute = brute_force_endomorphisms(q, cap=cap)
    affine = set(e.images for e in affine_endomorphisms(n))
    missing = affine - set(e.images for e in brute)
    if missing:
        raise_internal = ", ".join(map(str, sorted(missing)))
        raise AssertionError(f"brute-force search missed affine maps: {raise_internal}")
    surplus = [e for e in brute if e.images not in affine]
    if surplus:
        warnings.warn(
            f"R_{n} has {len(surplus)} endomorphisms outside the affine family",
            NonAffineEndomorphismWarning,
            stacklevel=2,
        )
    return surplus
