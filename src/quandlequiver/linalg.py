"""Exact integer linear algebra: Smith normal form and kernels mod n.

Everything here runs on Python's arbitrary-precision integers.  Propagation
matrices of long braid words have entries that grow geometrically with the
word length, so fixed-width arithmetic would overflow silently; exactness
is the whole point of this backend; only kernel vectors mod n are int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import enumeration_cap
from .errors import CapExceededError, InternalConsistencyError


class IntMatrix:
    """Dense matrix of Python ints, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = [[int(x) for x in row] for row in data]
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("rows must all have the same length")
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = list(zip(*other.data))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)]
        )

    def __repr__(self):
        return f"IntMatrix({self.data!r})"


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form U*A*V = D with unimodular U, V.

    diag holds the full diagonal of D (length min(rows, cols), zeros
    included); rank counts its nonzero entries.
    """

    diag: tuple[int, ...]
    rank: int
    left: IntMatrix
    right: IntMatrix


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize an integer matrix with unimodular row/column transforms.

    Returns nonnegative diagonal entries d_1 | d_2 | ... (divisibility
    chain).  The decomposition left*a*right == diag(d) is re-verified
    before returning.
    """
    m = [row[:] for row in a.data]
    nr, nc = a.rows, a.cols
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_sub(i, k, q):
        mi, mk = m[i], m[k]
        for j in range(nc):
            mi[j] -= q * mk[j]
        ui, uk = u[i], u[k]
        for j in range(nr):
            ui[j] -= q * uk[j]

    def col_sub(j, k, q):
        for row in m:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    def row_negate(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    size = min(nr, nc)
    t = 0
    while t < size:
        pi = pj = -1
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    pi, pj, best = i, j, abs(x)
        if best is None:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if m[t][t] < 0:
            row_negate(t)

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
            if all(m[i][t] == 0 for i in range(t + 1, nr)) and all(
                m[t][j] == 0 for j in range(t + 1, nc)
            ):
                break

        # the pivot must divide everything that remains; if not, fold the
        # offending row in and rerun this position with a smaller gcd
        piv = m[t][t]
        offender = None
        for i in range(t + 1, nr):
            row = m[i]
            for j in range(t + 1, nc):
                if row[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)
            continue
        t += 1

    diag = tuple(m[i][i] for i in range(size))
    rank = sum(1 for d in diag if d)
    for i in range(rank - 1):
        if diag[i + 1] % diag[i]:
            raise InternalConsistencyError(f"divisibility chain broken: {diag}")
    left = IntMatrix(u)
    right = IntMatrix(v)
    check = left @ a @ right
    for i in range(nr):
        for j in range(nc):
            want = diag[i] if i == j and i < size else 0
            if check.data[i][j] != want:
                raise InternalConsistencyError("U*A*V does not equal the computed diagonal")
    return SnfResult(diag=diag, rank=rank, left=left, right=right)


def kernel_count_from_snf(snf: SnfResult, n: int) -> int:
    """Number of solutions of A*y = 0 mod n, from a precomputed form."""
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    count = 1
    for d in snf.diag:
        count *= math.gcd(d, n)
    cols = snf.right.rows
    return count * n ** (cols - len(snf.diag))


def kernel_enumerate_mod(a: IntMatrix, n: int, cap: int | None = None) -> np.ndarray:
    """All y in (Z_n)^cols with A*y = 0 mod n, as the rows of a read-only
    (count, cols) int64 array in lexicographic order.

    Solutions are generated through the Smith form: with U*A*V = D the
    substitution y = V*z turns the system into independent congruences
    d_i * z_i = 0 mod n, and each column of V, times each allowed z_i, is
    added to every partial sum at once.  Raises CapExceededError before
    generating anything when the solution count is above the cap.
    """
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    s = smith_normal_form(a)
    total = kernel_count_from_snf(s, n)
    limit = enumeration_cap() if cap is None else cap
    if total > limit:
        raise CapExceededError(
            f"kernel mod {n} has {total} vectors, above the enumeration cap {limit}",
            count=total,
        )
    c = s.right.rows
    diag = list(s.diag) + [0] * (c - len(s.diag))
    # V's entries, and their multiples, can pass int64: they are reduced
    # mod n as Python ints, and sums of two entries below n stay below 2n
    right = np.array(s.right.data, dtype=object)
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
