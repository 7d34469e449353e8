"""Smith normal form mod L and kernels mod n, on bounded integers.

A coloring count by R_n needs only gcd(e_i, n) of the closure system's
Smith invariants e_i, and enumeration needs only the Smith transform mod
n.  So the elimination runs mod one modulus L that every requested n
divides: each row and column operation is invertible mod L, hence the
cokernel of A mod L is the sum of the Z/gcd(e_i, L), and for n | L,
gcd(gcd(e_i, L), n) = gcd(e_i, n).  Every entry of the working matrix and
of the transforms is kept in 0..L-1, so no number grows with the word;
only kernel vectors mod n are int64.

Each entry is cleared in one exact step when the pivot's gcd with L
divides it, by the pivot's inverse mod L/g; only the others take a Euclid
step.  A count reads only the diagonal, so a unit pivot clears its column
alone, and the column operations that would clear its row, which no later
entry depends on, run only when V is read.  Each form is checked twice
over: U*A*V0 = R at elimination, and U*A*V = D when V is read; the
products run in int64 when no dot product can pass 2**63, and on Python
ints otherwise.  Kernel vectors are sorted by their base-n row keys
(`row_keys`) and returned with them, so a ColoringSet keeps those keys
rather than compute them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import enumeration_cap
from .errors import CapExceededError, InternalConsistencyError, count_text


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form U*A*V = D mod `modulus`, U and V invertible mod it.

    diag holds gcd(d_i, modulus) for the full diagonal of D (length
    min(rows, cols)), 0 standing for d_i = 0 mod modulus; it is a
    divisibility chain.  columns is A's column count.  right is V, rows of
    ints in 0..modulus-1, built and checked on first read: a count never
    reads it.
    """

    diag: tuple[int, ...]
    modulus: int
    columns: int
    # (A, U, R, V0 transposed, unit rows) as the elimination left them
    _deferred: tuple = field(repr=False, compare=False)

    @cached_property
    def right(self) -> list[list[int]]:
        return _right_transform(self.modulus, *self._deferred)


def product_mod(a, b, modulus: int) -> np.ndarray:
    """The matrix product a*b mod `modulus` of matrices with entries in
    0..modulus-1, exact: in int64 when every dot product fits,
    inner * (modulus - 1)**2 < 2**63, on Python ints (an object array)
    otherwise."""
    inner = len(b)
    dtype = np.int64 if inner * (modulus - 1) ** 2 < 2**63 else object
    return np.array(a, dtype=dtype) @ np.array(b, dtype=dtype) % modulus


def _identity(size: int, modulus: int) -> list[list[int]]:
    rows = [[0] * size for _ in range(size)]
    for i, row in enumerate(rows):
        row[i] = 1 % modulus
    return rows


def smith_normal_form(a, modulus: int) -> SnfResult:
    """Diagonalize an integer matrix (a list of rows) mod L = `modulus`.

    At each position the pivot is the first entry, in row-major order, of
    least gcd(x, L).  With g = gcd(p, L), an entry b that g divides is
    cleared in one exact step, by q = (b/g)*((p/g)^-1 mod L/g), since
    q*p == b mod L; any other entry takes a Euclid step whose remainder,
    below the pivot, becomes the pivot, so the pivot's value falls on
    every such step.  The diagonal entry d left at a position need not
    divide L; what later reductions mod L keep is that every later entry
    is a multiple of gcd(d, L), so the reported diagonal is those gcds.

    A unit pivot (g = 1) clears its column by row operations only.  Its
    column is then zero below it, so the column operations that would
    clear its row change no later entry, and they are deferred until V is
    read.  So the elimination leaves U*A*V0 = R mod L: V0 holds the
    column swaps and the other pivots' column operations, and R is
    diagonal but for the entries right of a unit pivot in its row.  That
    shape, the chain and U*(A*V0) = R are checked before returning, A*V0
    taken by the same column operations on the columns of A; reading
    `right` runs the deferred operations and checks U*A*V = D.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be at least 1, got {modulus}")
    start = [[int(x) % modulus for x in row] for row in a]
    nr, nc = len(start), len(start[0])
    # each working row carries its row of U after its nc entries, so a row
    # operation is one list comprehension; vt[j] is column j of V0, and
    # av[j] column j of A*V0, which the check reads
    w = [row + e for row, e in zip(start, _identity(nr, modulus))]
    vt = _identity(nc, modulus)
    av = [list(col) for col in zip(*start)]
    units = []

    def row_sub(i, k, q):
        w[i] = [(x - q * y) % modulus for x, y in zip(w[i], w[k])]

    def row_swap(i, k):
        w[i], w[k] = w[k], w[i]

    def col_swap(j, k):
        # rows of unit pivots above t may hold entries in any column
        for row in w:
            row[j], row[k] = row[k], row[j]
        vt[j], vt[k] = vt[k], vt[j]
        av[j], av[k] = av[k], av[j]

    size = min(nr, nc)
    t = 0
    while t < size:
        best, pi, pj = modulus, -1, -1
        for i in range(t, nr):
            row = w[i]
            for j in range(t, nc):
                if row[j]:
                    g = math.gcd(row[j], modulus)
                    if g < best:
                        best, pi, pj = g, i, j
                        if g == 1:
                            break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        while True:
            # clear column t below the pivot, then, unless the pivot is a
            # unit, row t right of it; a Euclid step's remainder, below the
            # pivot, becomes the pivot and clearing starts over
            p = w[t][t]
            g = math.gcd(p, modulus)
            inverse = pow(p // g, -1, modulus // g)
            restart = False
            for i in range(t + 1, nr):
                b = w[i][t]
                if b:
                    q = b // g * inverse % modulus if b % g == 0 else b // p
                    if q:
                        row_sub(i, t, q)
                    if w[i][t]:
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            if g == 1:
                units.append(t)
                break
            pivot_row, pivot_col = w[t], vt[t]
            for j in range(t + 1, nc):
                b = pivot_row[j]
                if b:
                    q = b // g * inverse % modulus if b % g == 0 else b // p
                    # column t is zero below the pivot, so a column
                    # operation changes only rows t and above
                    if q:
                        for row in w[:t + 1]:
                            if row[t]:
                                row[j] = (row[j] - q * row[t]) % modulus
                        vt[j] = [(x - q * y) % modulus for x, y in zip(vt[j], pivot_col)]
                        av[j] = [(x - q * y) % modulus for x, y in zip(av[j], av[t])]
                    if pivot_row[j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue

            # the pivot must divide everything that remains in Z/L, that
            # is gcd(pivot, L) must divide it; if not, fold the offending
            # row in, which leaves the pivot a Euclid step to take
            offender = next(
                (i for i in range(t + 1, nr) if any(x % g for x in w[i][t + 1:nc])), None)
            if offender is None:
                break
            row_sub(t, offender, -1)
        t += 1

    reduced = [row[:nc] for row in w]
    u = [row[nc:] for row in w]
    unit_rows = set(units)
    if any(any(row[:i]) or i not in unit_rows and any(row[i + 1:])
           for i, row in enumerate(reduced)):
        raise InternalConsistencyError("R is not diagonal outside the rows of unit pivots")
    if product_mod(u, list(zip(*av)), modulus).tolist() != reduced:
        raise InternalConsistencyError("U*A*V0 does not equal the reduced matrix mod L")
    diag = tuple(math.gcd(reduced[i][i], modulus) if reduced[i][i] else 0 for i in range(size))
    if any(b % a if a else b for a, b in zip(diag, diag[1:])):
        raise InternalConsistencyError(f"divisibility chain broken: {diag}")
    return SnfResult(diag, modulus, nc, (start, u, reduced, vt, units))


def _right_transform(modulus, start, u, reduced, vt, units) -> list[list[int]]:
    """V: V0 times the deferred column operations that clear each unit
    pivot's row, checked by U*A*V = D.  They run from the first unit row
    down: the rows above a unit pivot are cleared by then, and its column
    is zero below it, so its column holds the pivot alone, the operations
    change no other row, and their coefficients are read off R as it
    stands."""
    vt, nc = vt[:], len(vt)
    for t in units:
        row, pivot_col = reduced[t], vt[t]
        inverse = pow(row[t], -1, modulus)
        for j in range(t + 1, nc):
            if row[j]:
                q = row[j] * inverse % modulus
                vt[j] = [(x - q * y) % modulus for x, y in zip(vt[j], pivot_col)]
    right = [list(row) for row in zip(*vt)]
    want = [[row[j] if i == j else 0 for j in range(nc)] for i, row in enumerate(reduced)]
    if product_mod(u, product_mod(start, right, modulus), modulus).tolist() != want:
        raise InternalConsistencyError("U*A*V does not equal the computed diagonal mod L")
    return right


def row_keys(rows: np.ndarray, m: int) -> np.ndarray:
    """Each row of digits 0..m-1 read as a base-m number, the first digit
    most significant, so key order is lexicographic row order.  Keys are
    int64 when every row of that width fits, Python ints otherwise."""
    key_type = np.int64 if m ** rows.shape[-1] < 2**63 else object
    keys = rows[..., 0].astype(key_type)
    for j in range(1, rows.shape[-1]):
        keys *= m
        keys += rows[..., j].astype(key_type)
    return keys


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
    factors[n] = factors.get(n, 0) + snf.columns - len(snf.diag)
    return factors


def kernel_enumerate_mod(a, n: int, cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, keys): all y in (Z_n)^cols with A*y = 0 mod n, as the rows of
    a read-only (count, cols) int64 array in lexicographic order, and their
    base-n row_keys, read-only and strictly increasing, which the sort
    reads and a ColoringSet keeps.

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
    c = s.columns
    diag = list(s.diag) + [0] * (c - len(s.diag))
    # V's entries are below n, but their multiples pass int64 once n is
    # past 3*10**9: they are reduced mod n as Python ints, and sums of two
    # entries below n stay below 2n
    right = np.array(s.right, dtype=object)
    out = np.zeros((1, c), dtype=np.int64)
    for j, d in enumerate(diag):
        multiples = np.arange(0, n, n // math.gcd(d, n))[:, None] * right[:, j] % n
        out = out[:, None] + multiples.astype(np.int64)
        out %= n
        out = out.reshape(-1, c)
    if len(out) != total:
        raise InternalConsistencyError(
            f"enumerated {len(out)} kernel vectors, expected {total}"
        )
    # one stable argsort of base-n keys is the lexicographic order
    keys = row_keys(out, n)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]  # frees the unsorted keys before the rows are copied
    out = out[order]
    out.flags.writeable = keys.flags.writeable = False
    return out, keys
