"""The exact-integer linear route, kept as the reference the tests compare
the package's bounded (mod L) Smith form against: a dense integer matrix
class, the integer propagation matrix and closure system of a braid word,
the Smith form over Z with unimodular U and V, and from it the kernel of a
matrix mod n, counted and enumerated; plus a determinant and a
matrix-vector product mod n.  Everything runs on arbitrary-precision ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from quandlequiver.errors import InternalConsistencyError


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


def propagation_matrix(word) -> IntMatrix:
    """Integer matrix M with bottom = M * top for dihedral targets, over Z."""
    p = word.strands
    m = [[int(i == j) for j in range(p)] for i in range(p)]
    for letter in word.letters:
        i = abs(letter) - 1
        ri, rj = m[i], m[i + 1]
        if letter > 0:
            m[i], m[i + 1] = rj[:], [2 * b - a for a, b in zip(ri, rj)]
        else:
            m[i], m[i + 1] = [2 * a - b for a, b in zip(ri, rj)], ri[:]
    return IntMatrix(m)


def closure_system(word) -> IntMatrix:
    """M - I over Z."""
    return propagation_matrix(word) - IntMatrix.identity(word.strands)


def det(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    a = [row[:] for row in m.data]
    n = m.rows
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def apply(rows, vector, modulus: int) -> tuple[int, ...]:
    """Matrix-vector product reduced mod `modulus`; `rows` is a list of rows."""
    vector = list(vector)
    if len(vector) != len(rows[0]):
        raise ValueError("vector length must equal column count")
    return tuple(sum(a * b for a, b in zip(row, vector)) % modulus for row in rows)


def kernel_count_mod(a, n: int) -> int:
    """Count y in (Z_n)^cols with A*y = 0 mod n from the integer Smith form."""
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    s = smith_normal_form(a)
    return math.prod(math.gcd(d, n) for d in s.diag) * n ** (a.cols - len(s.diag))


def kernel_enumerate_mod(a, n: int) -> list[tuple[int, ...]]:
    """All y in (Z_n)^cols with A*y = 0 mod n, sorted, as y = V*z over every
    z with d_i * z_i = 0 mod n, from the integer Smith form."""
    s = smith_normal_form(a)
    diag = list(s.diag) + [0] * (a.cols - len(s.diag))
    steps = [range(0, n, n // math.gcd(d, n)) for d in diag]
    return sorted({apply(s.right.data, z, n) for z in product(*steps)})
