"""Tests for the linear route's algebra: Smith normal form mod L and kernels mod n.

The package's form runs mod a modulus L on bounded integers.  It is held
against the exact-integer Smith form of `intmatrix_reference`, and that
reference is itself checked against two independent oracles: an
exhaustive elementary-operation search on the 2x2 fixture, and the
determinantal characterization (products of diagonal entries equal gcds
of k-by-k minors) on randomized matrices.  Kernel counting and
enumeration are checked against brute force over Z_n^p.
"""

import math
import random
from collections import deque
from itertools import combinations, product

import intmatrix_reference as ref
import numpy as np
import pytest
from braid_reference import torus_braid
from hypothesis import given, settings
from hypothesis import strategies as st
from intmatrix_reference import IntMatrix, det, kernel_count_mod

from quandlequiver import linalg
from quandlequiver.braids import BraidWord, TorusLinkSpec, closure_system
from quandlequiver.counting import predict_count
from quandlequiver.errors import CapExceededError, InternalConsistencyError
from quandlequiver.linalg import (
    kernel_count_from_snf,
    kernel_enumerate_mod,
    product_mod,
    row_keys,
    smith_normal_form,
)


def linear_count(rows, n):
    """The package's count: one Smith form mod n."""
    return kernel_count_from_snf(smith_normal_form(rows, n), n)


def kernel_rows(a, n, cap=None):
    """The package's kernel rows, once its keys are checked to be theirs."""
    rows, keys = kernel_enumerate_mod(a, n, cap=cap)
    assert np.array_equal(keys, row_keys(rows, n)) and not keys.flags.writeable
    return rows


def diag_embed(diag, rows, cols):
    return IntMatrix(
        [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)] for i in range(rows)]
    )


def assert_valid_snf(a, s):
    assert s.left @ a @ s.right == diag_embed(s.diag, a.rows, a.cols)
    assert det(s.left) in (1, -1)
    assert det(s.right) in (1, -1)
    assert all(d >= 0 for d in s.diag)
    assert s.rank == sum(1 for d in s.diag if d != 0)
    # nonzero entries come first and each divides the next
    for i in range(len(s.diag) - 1):
        if s.diag[i] == 0:
            assert s.diag[i + 1] == 0
        elif s.diag[i + 1] != 0:
            assert s.diag[i + 1] % s.diag[i] == 0


def test_snf_identity():
    s = ref.smith_normal_form(IntMatrix.identity(3))
    assert s.diag == (1, 1, 1)
    assert s.rank == 3
    assert smith_normal_form(IntMatrix.identity(3).data, 12).diag == (1, 1, 1)


def test_snf_zero_matrix():
    s = ref.smith_normal_form(IntMatrix.zeros(2, 2))
    assert s.diag == (0, 0)
    assert s.rank == 0
    assert smith_normal_form(IntMatrix.zeros(2, 2).data, 12).diag == (0, 0)


def test_snf_diag_2_3():
    a = IntMatrix([[2, 0], [0, 3]])
    s = ref.smith_normal_form(a)
    assert s.diag == (1, 6)
    assert_valid_snf(a, s)
    # mod L the diagonal is gcd(d, L), with 0 for d = 0 mod L
    assert [smith_normal_form(a.data, big).diag for big in (12, 6, 4, 5, 1)] == [
        (1, 6), (1, 0), (1, 2), (1, 1), (0, 0)]


def reachable_chain_diagonals(a, bound=12):
    """Oracle: breadth-first search over unimodular row/column operations.

    Explores every matrix reachable from `a` whose entries stay within
    `bound` in absolute value, and collects those that are diagonal with
    non-negative entries forming a divisibility chain.  The Smith form is
    the unique such diagonal, so the search must find exactly one.
    """
    start = tuple(tuple(row) for row in a.data)
    rows, cols = a.rows, a.cols

    def moves(state):
        m = [list(row) for row in state]
        for i in range(rows):
            for j in range(rows):
                if i != j:
                    for sign in (1, -1):
                        yield tuple(
                            tuple(m[r][c] + (sign * m[j][c] if r == i else 0) for c in range(cols))
                            for r in range(rows)
                        )
        for i in range(cols):
            for j in range(cols):
                if i != j:
                    for sign in (1, -1):
                        yield tuple(
                            tuple(m[r][c] + (sign * m[r][j] if c == i else 0) for c in range(cols))
                            for r in range(rows)
                        )
        for i in range(rows):
            for j in range(i + 1, rows):
                yield tuple(tuple(m[j if r == i else i if r == j else r]) for r in range(rows))
        for i in range(cols):
            yield tuple(tuple(-v if c == i else v for c, v in enumerate(row)) for row in state)

    seen = {start}
    queue = deque([start])
    found = set()
    while queue:
        state = queue.popleft()
        flat = [state[i][j] for i in range(rows) for j in range(cols)]
        d = [state[i][i] for i in range(min(rows, cols))]
        if all(state[i][j] == 0 for i in range(rows) for j in range(cols) if i != j):
            if all(x >= 0 for x in d) and all(
                d[k + 1] % d[k] == 0 for k in range(len(d) - 1) if d[k] != 0
            ):
                if not any(d[k] == 0 and d[k + 1] != 0 for k in range(len(d) - 1)):
                    found.add(tuple(d))
        for nxt in moves(state):
            if nxt not in seen and all(abs(v) <= bound for row in nxt for v in row):
                seen.add(nxt)
                queue.append(nxt)
    return found


def test_snf_matches_elementary_operation_search():
    a = IntMatrix([[2, 0], [0, 3]])
    assert reachable_chain_diagonals(a) == {(1, 6)}
    assert ref.smith_normal_form(a).diag == (1, 6)


def minors_gcd_diag(a):
    """Oracle: d_1 * ... * d_k equals the gcd of all k-by-k minors."""
    r = min(a.rows, a.cols)
    out = []
    prev = 1
    for k in range(1, r + 1):
        g = 0
        for ri in combinations(range(a.rows), k):
            for ci in combinations(range(a.cols), k):
                sub = IntMatrix([[a.data[i][j] for j in ci] for i in ri])
                g = math.gcd(g, det(sub))
        if g == 0:
            out.extend([0] * (r - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


@st.composite
def int_matrices(draw, max_dim=4, max_entry=9):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return IntMatrix(data)


@given(int_matrices())
@settings(max_examples=150)
def test_snf_transforms_and_chain(a):
    assert_valid_snf(a, ref.smith_normal_form(a))


@given(int_matrices(max_dim=3, max_entry=6))
@settings(max_examples=80)
def test_snf_matches_minors_gcd(a):
    assert ref.smith_normal_form(a).diag == minors_gcd_diag(a)


def brute_kernel(a, n):
    sols = []
    for y in product(range(n), repeat=a.cols):
        if all(sum(row[j] * y[j] for j in range(a.cols)) % n == 0 for row in a.data):
            sols.append(y)
    return sols


@given(int_matrices(max_dim=4, max_entry=3), st.integers(2, 6))
@settings(max_examples=120)
def test_kernel_count_and_enumeration_match_brute_force(a, n):
    expected = brute_kernel(a, n)
    assert kernel_count_mod(a, n) == linear_count(a.data, n) == len(expected)
    assert np.array_equal(kernel_rows(a.data, n), expected)


def test_kernel_count_zero_matrix():
    assert kernel_count_mod(IntMatrix.zeros(5, 5), 3) == linear_count([[0] * 5] * 5, 3) == 243


def test_kernel_count_identity():
    assert kernel_count_mod(IntMatrix.identity(5), 7) == linear_count(IntMatrix.identity(5).data, 7) == 1


def test_kernel_count_torus_5_2_mod_10():
    assert kernel_count_mod(ref.closure_system(torus_braid(5, 2)), 10) == 50
    assert linear_count(closure_system(torus_braid(5, 2), 10), 10) == 50


def test_kernel_enumerate_identity():
    assert np.array_equal(kernel_rows(IntMatrix.identity(5).data, 5), [(0, 0, 0, 0, 0)])


def test_kernel_enumerate_zero_2x2():
    vectors = kernel_rows([[0, 0], [0, 0]], 2)
    assert vectors.dtype == np.int64 and not vectors.flags.writeable
    assert vectors.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_kernel_enumerate_torus_5_2_mod_5():
    a = closure_system(torus_braid(5, 2), 5)
    vectors = kernel_rows(a, 5)
    assert len(vectors) == 25
    assert np.array_equal(vectors, brute_kernel(IntMatrix(a), 5))
    for y in vectors:
        assert y[0] == y[2] == y[4]
        assert y[1] == y[3]


def test_kernel_enumerate_is_exact_past_int64():
    # z = 5 * 10**9 times V's entry 10**10 - 2 mod n passes 2**63
    half = 5 * 10**9
    expected = [(0, 0), (0, half), (half, 0), (half, half)]
    assert np.array_equal(kernel_rows([[2, 4], [6, 10]], 10**10), expected)
    # a 160-letter word, whose integer Smith transform passes 2**63, gives
    # the reference's kernel from its form mod 6
    rng = random.Random(160)
    word = BraidWord(4, tuple(rng.choice((1, 2, 3)) for _ in range(160)))
    expected = ref.kernel_enumerate_mod(ref.closure_system(word), 6)
    assert np.array_equal(kernel_rows(closure_system(word, 6), 6), expected)
    assert expected == brute_kernel(ref.closure_system(word), 6)


def test_kernel_enumerate_sorted_and_distinct():
    a = closure_system(torus_braid(3, 2), 6)
    vectors = kernel_rows(a, 6)
    rows = list(map(tuple, vectors.tolist()))
    assert rows == sorted(set(rows))
    assert len(vectors) == kernel_count_mod(IntMatrix(a), 6)


def test_kernel_enumerate_cap_names_count():
    with pytest.raises(CapExceededError) as exc:
        kernel_rows([[0] * 4] * 2, 10, cap=100)
    assert exc.value.count == 10000
    assert "10000" in str(exc.value)


def test_kernel_cap_names_a_long_count_by_its_powers():
    with pytest.raises(CapExceededError) as exc:
        kernel_rows([[0] * 50], 5, cap=100)
    assert exc.value.count == 5**50
    assert str(exc.value) == "kernel mod 5 has 5^50 vectors, above the enumeration cap 100"
    # one power per factor gcd(d_i, n) > 1: 2 from the pivot, 4 from the free column
    with pytest.raises(CapExceededError) as exc:
        kernel_rows([[2, 0]], 4, cap=2)
    assert exc.value.count == 8
    assert str(exc.value) == "kernel mod 4 has 2^1*4^1 = 8 vectors, above the enumeration cap 2"


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_invalid_modulus_rejected(n):
    with pytest.raises(ValueError):
        kernel_count_mod(IntMatrix.identity(2), n)
    with pytest.raises(ValueError):
        kernel_rows([[1, 0], [0, 1]], n)
    with pytest.raises(ValueError):
        kernel_count_from_snf(smith_normal_form([[1, 0], [0, 1]], 6), n)


def test_count_needs_a_form_mod_a_multiple_of_n():
    s = smith_normal_form([[2, 0], [0, 3]], 12)
    assert [kernel_count_from_snf(s, n) for n in (2, 3, 4, 6, 12)] == [2, 3, 2, 6, 6]
    with pytest.raises(ValueError):
        kernel_count_from_snf(s, 5)
    with pytest.raises(ValueError):
        smith_normal_form([[1]], 0)


def bounded_diag(diag, big):
    """The Smith diagonal over Z seen mod L: gcd(d, L), 0 where L | d."""
    return tuple(0 if d % big == 0 else math.gcd(d, big) for d in diag)


def assert_matches_reference(a, ns):
    """The form mod lcm(ns) gives the integer form's diagonal mod L, only
    bounded entries, and each n's count; the form mod n its kernel."""
    big = math.lcm(*ns)
    s = smith_normal_form(a.data, big)
    assert s.diag == bounded_diag(ref.smith_normal_form(a).diag, big)
    assert all(0 <= x < big for row in s.right for x in row)
    for n in ns:
        assert kernel_count_from_snf(s, n) == kernel_count_mod(a, n)
        if kernel_count_mod(a, n) <= 2000:
            assert kernel_rows(a.data, n).tolist() == list(
                map(list, ref.kernel_enumerate_mod(a, n)))


moduli_sets = st.lists(st.integers(2, 30), min_size=1, max_size=4)


@st.composite
def signed_words(draw):
    strands = draw(st.integers(2, 7))
    letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    return BraidWord(strands, tuple(draw(st.lists(letter, max_size=40))))


@given(signed_words(), moduli_sets)
@settings(max_examples=150)
def test_form_mod_lcm_matches_integer_reference_on_words(word, ns):
    big = math.lcm(*ns)
    rows = closure_system(word, big)
    assert all(0 <= x < big for row in rows for x in row)
    assert rows == [[x % big for x in row] for row in ref.closure_system(word).data]
    assert_matches_reference(ref.closure_system(word), ns)


@given(int_matrices(max_dim=5, max_entry=40), moduli_sets)
@settings(max_examples=150)
def test_form_mod_lcm_matches_integer_reference_on_matrices(a, ns):
    assert_matches_reference(a, ns)


# moduli whose divisors' gcds with an entry form no chain, so the least
# gcd(x, L) is not the least entry and the exact step and the Euclid step
# both run
CHAINLESS_MODULI = (6, 30, 210, 2310, 30030, 2520)


@given(int_matrices(max_dim=8, max_entry=60), st.sampled_from(CHAINLESS_MODULI))
@settings(max_examples=150, deadline=None)
def test_form_matches_reference_on_chainless_moduli(a, big):
    s = smith_normal_form(a.data, big)
    assert s.diag == bounded_diag(ref.smith_normal_form(a).diag, big)
    assert all(0 <= x < big for row in s.right for x in row)
    assert math.gcd(det(IntMatrix(s.right)), big) == 1


@pytest.mark.parametrize("p", [31, 61])
def test_torus_forms_give_the_predicted_counts(p):
    # one form mod lcm(2..12) per link counts every n; ambiguous cells must
    # give one of their candidates
    big = math.lcm(*range(2, 13))
    for q in (0, 1, 2, 3, 4, p - 1, p, p + 2, 2 * p, 2 * p + 1, 3 * p):
        s = smith_normal_form(closure_system(TorusLinkSpec(p, q), big), big)
        for n in range(2, 13):
            count = kernel_count_from_snf(s, n)
            prediction = predict_count(p, q, n)
            if prediction.ambiguous:
                assert count in prediction.candidates
            else:
                assert count == prediction.n_colorings, (p, q, n)


def int64_edge(inner):
    """The largest modulus whose products of `inner` terms run in int64."""
    return math.isqrt((2**63 - 1) // inner) + 1


@pytest.mark.parametrize("inner", [1, 3, 12])
@pytest.mark.parametrize("over", [0, 1])
def test_product_mod_is_exact_on_both_sides_of_the_int64_bound(inner, over):
    modulus = int64_edge(inner) + over
    rng = random.Random(inner)
    top = modulus - 1
    a = [[top] * inner] + [[rng.randrange(modulus) for _ in range(inner)] for _ in range(3)]
    b = [[top] * 5] + [[rng.randrange(modulus) for _ in range(5)] for _ in range(inner - 1)]
    product = product_mod(a, b, modulus)
    assert product.dtype == (object if over else np.int64)
    exact = [[sum(x * y for x, y in zip(row, col)) % modulus for col in zip(*b)] for row in a]
    assert product.tolist() == exact
    assert all(type(x) is int for row in product.tolist() for x in row)


def test_form_past_2_to_the_32_checks_on_python_ints(monkeypatch):
    big = 2**32 * 3 * 5
    dtypes = []

    def recording(a, b, modulus):
        product = product_mod(a, b, modulus)
        dtypes.append(product.dtype)
        return product

    monkeypatch.setattr(linalg, "product_mod", recording)
    a = IntMatrix([[2**33 + 6, 4, 10], [6, 2**40 + 9, 15], [2**35, 12, 2**32 + 30]])
    s = smith_normal_form(a.data, big)
    # the elimination checks U*(A*V0) in one product, reading V two more
    assert dtypes == [object]
    assert s.diag == bounded_diag(ref.smith_normal_form(a).diag, big)
    assert math.gcd(det(IntMatrix(s.right)), big) == 1
    assert dtypes == [object] * 3


# moduli past 2**63: numpy reads a list mixing ints below 2**63 with ints
# in [2**63, 2**64) as float64, so a check that compared a product with a
# list of such ints failed on correct forms
WIDE_MODULI = st.integers(2**63 + 1, 2**63 + 2**10) | st.sampled_from((2**64, 2**65, 3**41))


@given(WIDE_MODULI, st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=60)
def test_form_past_2_to_the_63_matches_integer_reference(big, rows, cols, data):
    entry = st.integers(0, big - 1) | st.integers(0, 2**63 - 1) | st.integers(2**63, big - 1)
    a = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    s = smith_normal_form(a, big)
    assert s.diag == bounded_diag(ref.smith_normal_form(IntMatrix(a)).diag, big)
    assert math.gcd(det(IntMatrix(s.right)), big) == 1


def test_corrupted_transform_fails_the_check(monkeypatch):
    a = [[2, 4, 4], [6, 8, 10], [3, 5, 7]]
    assert smith_normal_form(a, 30).diag == (1, 2, 6)

    def sheared(size, modulus):
        # U and V start one shear away from the identity
        rows = [[int(i == j) for j in range(size)] for i in range(size)]
        rows[0][-1] = 1
        return rows

    monkeypatch.setattr(linalg, "_identity", sheared)
    with pytest.raises(InternalConsistencyError, match="U\\*A\\*V"):
        smith_normal_form(a, 30)


SNF_MODULUS = 2520  # lcm(2..9), the modulus of a count by every R_n, n <= 9
residues = st.integers(0, SNF_MODULUS - 1)
units = residues.filter(lambda x: math.gcd(x, SNF_MODULUS) == 1)


@st.composite
def unit_pivot_blocks(draw, rows, cols):
    """Lo * Up mod L, Lo lower unitriangular and Up upper triangular with
    unit diagonal: clearing the first column leaves the product of the
    trailing parts, so each pivot is a unit on the diagonal."""
    lower = [[1 if i == j else draw(residues) if j < i else 0 for j in range(rows)]
             for i in range(rows)]
    upper = [[draw(units) if i == j else draw(residues) if j > i else 0 for j in range(cols)]
             for i in range(rows)]
    return [[x % SNF_MODULUS for x in row] for row in (IntMatrix(lower) @ IntMatrix(upper)).data]


def even_blocks(rows, cols):
    """Even entries mod L: every entry, so every pivot, shares the factor 2 with L."""
    return st.lists(st.lists(residues.map(lambda x: 2 * x % SNF_MODULUS),
                             min_size=cols, max_size=cols), min_size=rows, max_size=rows)


dims = st.integers(1, 6)


def assert_form_matches_reference_mod_2520(data):
    """The form mod L against the integer reference: the diagonal, a V in
    0..L-1 invertible mod L, and the kernel rows mod divisors of L."""
    a = IntMatrix(data)
    s = smith_normal_form(data, SNF_MODULUS)
    assert s.diag == bounded_diag(ref.smith_normal_form(a).diag, SNF_MODULUS)
    assert s.columns == a.cols and len(s.right) == a.cols
    assert all(0 <= x < SNF_MODULUS for row in s.right for x in row)
    assert math.gcd(det(IntMatrix(s.right)), SNF_MODULUS) == 1
    for n in (4, 9, 10, 12):
        if kernel_count_mod(a, n) <= 2000:
            assert kernel_rows(data, n).tolist() == list(map(list, ref.kernel_enumerate_mod(a, n)))
    return s.diag


@given(dims.flatmap(lambda r: dims.flatmap(lambda c: unit_pivot_blocks(r, c))))
@settings(max_examples=60, deadline=None)
def test_form_matches_reference_when_every_pivot_is_a_unit(data):
    assert assert_form_matches_reference_mod_2520(data) == (1,) * min(len(data), len(data[0]))


@given(dims.flatmap(lambda r: dims.flatmap(lambda c: even_blocks(r, c))))
@settings(max_examples=60, deadline=None)
def test_form_matches_reference_when_no_pivot_is_a_unit(data):
    assert 1 not in assert_form_matches_reference_mod_2520(data)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_form_matches_reference_on_mixed_pivots(k, m, data):
    # unit pivots first, then the even block's, with entries right of the
    # unit rows in the even block's columns
    units_block = data.draw(unit_pivot_blocks(k, k), label="units")
    even = data.draw(even_blocks(m, m), label="even")
    right = data.draw(st.lists(st.lists(residues, min_size=m, max_size=m),
                               min_size=k, max_size=k), label="right")
    rows = [u + r for u, r in zip(units_block, right)] + [[0] * k + e for e in even]
    diag = assert_form_matches_reference_mod_2520(rows)
    assert diag[:k] == (1,) * k and 1 not in diag[k:]


@pytest.mark.parametrize("sheared,read,message", [
    # U is built first: the check at elimination fails
    (1, False, "U\\*A\\*V0 does not"),
    # V0 second: the check at elimination reads A*V0 as carried by the
    # column operations, not V0, so only reading V fails
    (2, True, "U\\*A\\*V does not"),
])
def test_a_sheared_transform_fails_its_check(monkeypatch, sheared, read, message):
    a = [[2, 4, 4], [6, 8, 10], [3, 5, 7]]
    built = []

    def shear_one(size, modulus):
        rows = [[int(i == j) for j in range(size)] for i in range(size)]
        built.append(size)
        if len(built) == sheared:
            rows[0][-1] = 1
        return rows

    monkeypatch.setattr(linalg, "_identity", shear_one)
    with pytest.raises(InternalConsistencyError, match=message):
        s = smith_normal_form(a, 30)
        assert s.diag == (1, 2, 6)
        if read:
            s.right


def test_a_wrong_deferred_column_operation_fails_when_v_is_read(monkeypatch):
    a = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    original = linalg._right_transform

    def off_by_one(modulus, start, u, reduced, vt, units):
        # a unit row's entry right of its pivot, the coefficient of one
        # deferred column operation, made one larger
        t = units[0]
        reduced = [row[:] for row in reduced]
        reduced[t][-1] = (reduced[t][-1] + 1) % modulus
        return original(modulus, start, u, reduced, vt, units)

    s = smith_normal_form(a, 30)
    assert s.diag == (1, 1, 3)
    monkeypatch.setattr(linalg, "_right_transform", off_by_one)
    with pytest.raises(InternalConsistencyError, match="U\\*A\\*V does not"):
        s.right
    monkeypatch.undo()
    assert math.gcd(det(IntMatrix(s.right)), 30) == 1


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[]])
    with pytest.raises(ValueError):
        IntMatrix([[1], [2, 3]])
    with pytest.raises(ValueError):
        det(IntMatrix.zeros(2, 3))
