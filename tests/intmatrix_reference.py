"""Reference checks on IntMatrix used by the tests: determinant, matrix-vector
product, and the kernel count of a matrix mod n."""

from quandlequiver.linalg import kernel_count_from_snf, smith_normal_form


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


def apply(m, vector, modulus: int) -> tuple[int, ...]:
    """Matrix-vector product reduced mod `modulus`."""
    vector = list(vector)
    if len(vector) != m.cols:
        raise ValueError("vector length must equal column count")
    return tuple(sum(a * b for a, b in zip(row, vector)) % modulus for row in m.data)


def kernel_count_mod(a, n: int) -> int:
    """Count y in (Z_n)^cols with A*y = 0 mod n, without enumerating."""
    return kernel_count_from_snf(smith_normal_form(a), n)
