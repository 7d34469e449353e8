"""Smith normal form mod L and kernels mod n, on bounded integers.

A coloring count by R_n needs only gcd(e_i, n) of the closure system's
Smith invariants e_i, and enumeration needs only the Smith transform mod
n.  So the elimination runs mod one modulus L that every requested n
divides: each row and column operation is invertible mod L, hence the
cokernel of A mod L is the sum of the Z/gcd(e_i, L), and for n | L,
gcd(gcd(e_i, L), n) = gcd(e_i, n).  Every entry of the working matrix and
of the transforms is kept in 0..L-1, so no number grows with the word;
only kernel vectors mod n are int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import enumeration_cap
from .errors import CapExceededError, InternalConsistencyError, count_text


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form U*A*V = D mod `modulus`, U and V invertible mod it.

    diag holds gcd(d_i, modulus) for the full diagonal of D (length
    min(rows, cols)), 0 standing for d_i = 0 mod modulus; it is a
    divisibility chain.  right is V, rows of ints in 0..modulus-1.
    """

    diag: tuple[int, ...]
    right: list[list[int]]
    modulus: int


def product_mod(a, b, modulus: int) -> np.ndarray:
    """The matrix product a*b mod `modulus` on exact integers, as an object array."""
    return np.array(a, dtype=object) @ np.array(b, dtype=object) % modulus


def smith_normal_form(a, modulus: int) -> SnfResult:
    """Diagonalize an integer matrix (a list of rows) mod L = `modulus`.

    Euclid-pivot elimination with every entry kept in 0..modulus-1.  The
    diagonal entry d left at a position need not divide L; what later
    reductions mod L keep is that every later entry is a multiple of
    gcd(d, L), so the reported diagonal is those gcds.  The chain, and
    U*A*V == D mod L, are re-verified before returning.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be at least 1, got {modulus}")
    start = [[x % modulus for x in row] for row in a]
    m = [row[:] for row in start]
    nr, nc = len(m), len(m[0])
    u = [[int(i == j) % modulus for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) % modulus for j in range(nc)] for i in range(nc)]

    def row_sub(i, k, q):
        m[i] = [(x - q * y) % modulus for x, y in zip(m[i], m[k])]
        u[i] = [(x - q * y) % modulus for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):
        for row in m:
            row[j] = (row[j] - q * row[k]) % modulus
        for row in v:
            row[j] = (row[j] - q * row[k]) % modulus

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    size = min(nr, nc)
    t = 0
    while t < size:
        # the smallest nonzero entry, the first in row-major order on ties
        nonzero = [(m[i][j], i, j) for i in range(t, nr) for j in range(t, nc) if m[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        # each subtraction leaves the integer remainder, below the pivot,
        # so the pivot falls until it divides its row and column
        while True:
            i = t + 1
            while i < nr:
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        row_sub(i, t, q)
                    if m[i][t]:
                        # remainder became the smaller pivot
                        row_swap(t, i)
                        i = t + 1
                        continue
                i += 1
            j = t + 1
            while j < nc:
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        col_sub(j, t, q)
                    if m[t][j]:
                        col_swap(t, j)
                        j = t + 1
                        continue
                j += 1
            if not any(m[i][t] for i in range(t + 1, nr)) and not any(m[t][t + 1:]):
                break

        # the pivot must divide everything that remains in Z/L, that is
        # gcd(pivot, L) must divide it; if not, fold the offending row in
        # and rerun this position with a smaller pivot
        g = math.gcd(m[t][t], modulus)
        offender = next((i for i in range(t + 1, nr) if any(x % g for x in m[i][t + 1:])), None)
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1

    want = [[m[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)]
    if not np.array_equal(product_mod(u, product_mod(start, v, modulus), modulus), want):
        raise InternalConsistencyError("U*A*V does not equal the computed diagonal mod L")
    diag = tuple(math.gcd(m[i][i], modulus) if m[i][i] else 0 for i in range(size))
    if any(b % a if a else b for a, b in zip(diag, diag[1:])):
        raise InternalConsistencyError(f"divisibility chain broken: {diag}")
    return SnfResult(diag=diag, right=v, modulus=modulus)


def kernel_count_from_snf(snf: SnfResult, n: int) -> int:
    """Number of solutions of A*y = 0 mod n, from a form mod a multiple of n."""
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    if snf.modulus % n:
        raise ValueError(f"a Smith form mod {snf.modulus} cannot count mod {n}")
    return math.prod(g**e for g, e in _kernel_factors(snf, n).items())


def _kernel_factors(snf: SnfResult, n: int) -> dict[int, int]:
    """{g: e}, the kernel count mod n being the product of the g**e: one
    factor gcd(d_i, n) per diagonal entry and n per free column."""
    factors: dict[int, int] = {}
    for d in snf.diag:
        g = math.gcd(d, n)
        factors[g] = factors.get(g, 0) + 1
    factors[n] = factors.get(n, 0) + len(snf.right) - len(snf.diag)
    return factors


def kernel_enumerate_mod(a, n: int, cap: int | None = None) -> np.ndarray:
    """All y in (Z_n)^cols with A*y = 0 mod n, as the rows of a read-only
    (count, cols) int64 array in lexicographic order.

    Solutions are generated through the Smith form mod n: with U*A*V = D
    the substitution y = V*z turns the system into independent congruences
    d_i * z_i = 0 mod n, and each column of V, times each allowed z_i, is
    added to every partial sum at once.  Raises CapExceededError before
    generating anything when the solution count is above the cap.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    s = smith_normal_form(a, n)
    total = kernel_count_from_snf(s, n)
    limit = enumeration_cap() if cap is None else cap
    if total > limit:
        factors = sorted(_kernel_factors(s, n).items())
        power = "*".join(f"{g}^{e}" for g, e in factors if g > 1 and e)
        raise CapExceededError(
            f"kernel mod {n} has {count_text(total, power)} vectors, "
            f"above the enumeration cap {limit}",
            count=total,
            power=power,
        )
    c = len(s.right)
    diag = list(s.diag) + [0] * (c - len(s.diag))
    # V's entries are below n, but their multiples pass int64 once n is
    # past 3*10**9: they are reduced mod n as Python ints, and sums of two
    # entries below n stay below 2n
    right = np.array(s.right, dtype=object)
    out = np.zeros((1, c), dtype=np.int64)
    for j, d in enumerate(diag):
        multiples = np.arange(0, n, n // math.gcd(d, n))[:, None] * right[:, j] % n
        out = ((out[:, None] + multiples.astype(np.int64)) % n).reshape(-1, c)
    if len(out) != total:
        raise InternalConsistencyError(
            f"enumerated {len(out)} kernel vectors, expected {total}"
        )
    # lexsort's last key is the primary one
    out = out[np.lexsort(out.T[::-1])]
    out.flags.writeable = False
    return out
