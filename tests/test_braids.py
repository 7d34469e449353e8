"""Tests for braid words, color propagation, and the linearized transition matrix.

The crossing convention is pinned here twice over: once through direct
propagation fixtures, once through the requirement that a letter composed
with its inverse restores every color state (checked over a kei and over
a quandle that is not a kei).
"""

import random
from itertools import product

import intmatrix_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from braid_reference import shortest_period, torus_braid
from intmatrix_reference import IntMatrix, apply, det
from oracle_reference import propagate
from quandle_reference import CayleyTable, dihedral

from quandlequiver import braids
from quandlequiver.braids import (
    BraidWord,
    TorusLinkSpec,
    closure_system,
    factor_power,
    parse_link,
    propagation_matrix,
)
from quandlequiver.errors import InternalConsistencyError


def alexander_mod5():
    return CayleyTable([[(2 * x - y) % 5 for y in range(5)] for x in range(5)])


def random_word(rng, strands, length):
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))
    return BraidWord(strands, letters)


def test_braid_word_validation():
    w = BraidWord(3, (1, 2, -1, -2))
    assert w.strands == 3
    assert len(w) == 4
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(2, (-2,))
    # the first bad letter in the word is the one named
    with pytest.raises(ValueError, match="^letter 3 is not a generator of B_3$"):
        BraidWord(3, (1, 3, 1, 0))


def test_torus_spec_validation():
    with pytest.raises(ValueError):
        TorusLinkSpec(1, 3)
    with pytest.raises(ValueError):
        TorusLinkSpec(3, -1)
    with pytest.raises(TypeError):
        torus_braid(5)


def test_torus_braid_words():
    assert torus_braid(3, 2).letters == (1, 2, 1, 2)
    assert torus_braid(5, 1).letters == (1, 2, 3, 4)
    assert torus_braid(5, 0) == BraidWord(5, ())
    assert torus_braid(2, 3).letters == (1, 1, 1)


def test_factor_power_finds_the_shortest_period():
    rng = random.Random(5)
    for _ in range(300):
        factor = random_word(rng, 4, rng.randint(1, 6))
        q = rng.randint(1, 5)
        word = BraidWord(4, factor.letters * q)
        d = shortest_period(word)
        assert factor_power(word) == (BraidWord(4, word.letters[:d]), len(word) // d)
    # an aperiodic word is its own factor, returned as it is
    word = BraidWord(3, (1, 2, 1, 1, 2))
    assert factor_power(word)[0] is word and factor_power(word)[1] == 1
    assert factor_power(BraidWord(3, ())) == (BraidWord(3, ()), 0)
    assert factor_power(BraidWord(3, (2, 2, 2))) == (BraidWord(3, (2,)), 3)
    assert factor_power(TorusLinkSpec(4, 6)) == (BraidWord(4, (1, 2, 3)), 6)


def test_parse_link():
    assert parse_link("torus:5,2") == TorusLinkSpec(5, 2)
    assert parse_link("torus:+5, 2 ") == TorusLinkSpec(5, 2)
    w = parse_link("s1 s2 -s1")
    assert w.strands == 3
    assert w.letters == (1, 2, -1)
    assert parse_link("  -s1   s1 ") == BraidWord(2, (-1, 1))
    for bad in ("x3", "s0", "", "torus:5", "torus:a,b", "s1 t2", "torus:1,2", "torus:5,-1"):
        with pytest.raises(ValueError):
            parse_link(bad)


def test_parse_link_reads_ascii_digits_only():
    # other Unicode digits pass str.isdigit: a fullwidth one read as its
    # ASCII twin, and a superscript one failed inside int()
    for text, name in (("s1 s\uff12", "s\uff12"), ("s\u00b2", "s\u00b2"), ("-s\u0663", "s\u0663")):
        with pytest.raises(ValueError) as exc:
            parse_link(text)
        assert str(exc.value) == f"bad braid letter {name!r}; use s3 or -s3"
    # each distinct token is read once, and the first bad one in the word is named
    assert parse_link("s2 s1 s2 -s1 s01 -s2") == BraidWord(3, (2, 1, 2, -1, 1, -2))
    for text, message in (
        ("s1 -x3 s0", "bad braid letter 'x3'; use s3 or -s3"),
        ("s1 -s0 x3", "generator index must be at least 1, got 's0'"),
        ("s1 -", "bad braid letter ''; use s3 or -s3"),
        ("  ", "empty braid word; use torus:p,q for an unlink"),
        # torus:p,q reads p and q as config.integer does
        ("torus:x,2", "expected torus:p,q, got 'torus:x,2'"),
        ("torus:\uff13,2", "expected torus:p,q, got 'torus:\uff13,2'"),
        ("torus:1_0,2", "expected torus:p,q, got 'torus:1_0,2'"),
        (" torus:5,2,1", "expected torus:p,q, got 'torus:5,2,1'"),
        ("torus:-3,2", "p must be at least 2, got -3"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_link(text)
        assert str(exc.value) == message


def test_propagate_single_positive_crossing():
    r5 = dihedral(5)
    assert propagate(BraidWord(2, (1,)), r5, (1, 3)) == (3, 0)


def test_propagate_empty_word_is_identity():
    r7 = dihedral(7)
    for top in ((0, 0, 0, 0), (1, 2, 3, 4), (6, 6, 0, 1)):
        assert propagate(BraidWord(4, ()), r7, top) == top


def test_propagate_input_validation():
    r3 = dihedral(3)
    with pytest.raises(ValueError):
        propagate(BraidWord(2, (1,)), r3, (0, 0, 0))
    with pytest.raises(ValueError):
        propagate(BraidWord(2, (1,)), r3, (0, 3))


@pytest.mark.parametrize("quandle", [dihedral(4), dihedral(5), alexander_mod5()])
def test_letter_times_inverse_is_identity(quandle):
    n = quandle.size
    for letters in ((1, -1), (-1, 1), (2, -2), (-2, 2)):
        word = BraidWord(3, letters)
        for top in product(range(n), repeat=3):
            assert propagate(word, quandle, top) == top


def test_negative_crossing_on_kei_uses_op_itself():
    # in a kei the inverse operation coincides with the operation
    r7 = dihedral(7)
    word = BraidWord(2, (-1,))
    for x in range(7):
        for y in range(7):
            assert propagate(word, r7, (x, y)) == (r7.table[y, x], x)


def test_braid_relation_on_colors():
    w1, w2 = BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))
    for quandle in (dihedral(5), alexander_mod5()):
        for top in product(range(quandle.size), repeat=3):
            assert propagate(w1, quandle, top) == propagate(w2, quandle, top)


def test_matrix_empty_word():
    assert propagation_matrix(BraidWord(2, ()), 7) == [[1, 0], [0, 1]]
    assert propagation_matrix(BraidWord(2, ()), 1) == [[0, 0], [0, 0]]


def test_matrix_single_generator():
    assert ref.propagation_matrix(BraidWord(2, (1,))).data == [[0, 1], [-1, 2]]
    assert propagation_matrix(BraidWord(2, (1,)), 5) == [[0, 1], [4, 2]]


def test_matrix_torus_5_10_is_identity_over_z():
    assert ref.propagation_matrix(torus_braid(5, 10)) == IntMatrix.identity(5)
    assert propagation_matrix(torus_braid(5, 10), 9) == IntMatrix.identity(5).data
    zero = closure_system(torus_braid(5, 10), 9)
    assert all(v == 0 for row in zero for v in row)


def test_closure_system_is_matrix_minus_identity():
    word = torus_braid(3, 2)
    m = propagation_matrix(word, 6)
    s = closure_system(word, 6)
    for i in range(3):
        for j in range(3):
            assert s[i][j] == (m[i][j] - (i == j)) % 6


def test_matrix_concatenation_and_determinant():
    rng = random.Random(20240817)
    for _ in range(40):
        strands = rng.randint(2, 6)
        u = random_word(rng, strands, rng.randint(0, 8))
        v = random_word(rng, strands, rng.randint(0, 8))
        uv = BraidWord(strands, u.letters + v.letters)
        big = rng.randint(1, 60)
        mu, mv = propagation_matrix(u, big), propagation_matrix(v, big)
        # the matrix mod L is the integer one reduced, entries in 0..L-1
        assert mu == [[x % big for x in row] for row in ref.propagation_matrix(u).data]
        # composition and det(M) = 1 hold mod L
        composed = [[sum(a * b for a, b in zip(row, col)) % big for col in zip(*mu)] for row in mv]
        assert propagation_matrix(uv, big) == composed
        assert det(IntMatrix(mu)) % big == 1 % big
        assert det(ref.propagation_matrix(u)) == 1


# the packed walk's field width follows bits(L), and its reads run in
# int64 or on Python ints by L: moduli on both sides of each bound
WALK_MODULI = (
    st.sampled_from((1, 2520, 10**30 + 7))
    | st.integers(2, 60)
    | st.integers(2**63 - 2**10, 2**63 + 2**10)
)


@st.composite
def long_words(draw):
    """Words of 0..700 letters on 1..14 strands: random ones; one letter's
    power, whose two strands grow on every letter; and s_k s_(k+1)^-1
    repeated, whose entries grow about 0.7 bits a letter, so that long ones
    outgrow their fields and are reduced on the way."""
    strands = draw(st.integers(1, 14))
    length = draw(st.integers(0, 700)) if strands > 1 else 0
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random", "power", "growing")))
    k = rng.randint(1, max(1, strands - 2))
    if kind == "power" or kind == "growing" and strands < 3:
        return BraidWord(strands, (rng.choice((k, -k)),) * length)
    if kind == "growing":
        return BraidWord(strands, (k, -k - 1) * (length // 2))
    return random_word(rng, strands, length) if length else BraidWord(strands, ())


@given(long_words(), WALK_MODULI)
@settings(max_examples=150)
def test_packed_walk_is_the_integer_matrix_reduced(word, big):
    exact = ref.propagation_matrix(word).data
    assert propagation_matrix(word, big) == [[x % big for x in row] for row in exact]
    # a power of one letter closes its factor by square-and-multiply
    assert closure_system(word, big) == [[(x - (i == j)) % big for j, x in enumerate(row)]
                                         for i, row in enumerate(exact)]


@pytest.mark.parametrize("big", [2, 2520, 2**64, 10**30 + 7])
@pytest.mark.parametrize("letters", [(-2,), (1, -2)])
def test_a_long_word_is_reduced_on_the_way(big, letters, monkeypatch):
    read = braids._read_fields
    reads = []

    def counting(colors, *args):
        reads.append(len(colors))
        return read(colors, *args)

    monkeypatch.setattr(braids, "_read_fields", counting)
    word = BraidWord(3, letters * (700 // len(letters)))
    exact = ref.propagation_matrix(word).data
    assert propagation_matrix(word, big) == [[x % big for x in row] for row in exact]
    # a letter's two strands are reduced together, then M is read once
    assert reads == [2] * reductions(word, big) + [3] and len(reads) > 2


def reductions(word, big):
    """How often the walk reduces: a strand's fields stay within its bound,
    2*over + under after a letter and L - 1 after a reduction, and a letter
    whose bound would pass 2**(F-3) first reduces its two strands."""
    limit = 2 ** (8 * ((big.bit_length() + 64 + 7) // 8) - 3)
    bounds, count = [1] * word.strands, 0
    for letter in word.letters:
        k = abs(letter)
        over, under = (k, k - 1) if letter > 0 else (k - 1, k)
        if 2 * bounds[over] + bounds[under] > limit:
            bounds[k - 1] = bounds[k] = big - 1
            count += 1
        bounds[over], bounds[under] = 2 * bounds[over] + bounds[under], bounds[over]
    return count


@pytest.mark.parametrize("fields", [
    [2**63 - 1, 1 - 2**63, 0, 1, -1, 12345],   # every field fits int64
    [2**63, -2**63, 2**77, -2**77, 5, -5],      # some do not
])
def test_the_read_is_exact_on_both_sides_of_int64(fields):
    # F = 80 bits, so 2**77 is the largest field the walk keeps
    width = 10
    color = sum(f << (8 * width * j) for j, f in enumerate(fields))
    for big in (1, 3, 2520, 2**63 - 25, 2**63 + 25, 10**30 + 7):
        assert braids._read_fields([color, -color], len(fields), width, big) == [
            [f % big for f in fields], [-f % big for f in fields]]


@pytest.mark.parametrize("fields", [
    # 2**(F-1) + 1 overflows its F bits and carries into the next field,
    # which reads (1 - 2**(F-1), 1 - 2**(F-1)): the row still sums to 1
    # mod 3, since 3 divides 2**F - 1, so only the field check sees it
    [2**71 + 1, -(2**71)],
    [2**69 + 2**64, 1 - 2**69 - 2**64],         # past the walk's bound
    [2, 2**71],                                 # past the color's last byte
    [1, -(2**71) - 1],
])
def test_an_overflowed_field_fails_the_read(fields):
    width = 9
    color = sum(f << (8 * width * j) for j, f in enumerate(fields))
    assert sum(fields) % 3 == 1 and 2 * (1 - 2**71) % 3 == 1
    with pytest.raises(InternalConsistencyError, match="overflowed"):
        braids._read_fields([color], len(fields), width, 3)


def test_a_corrupted_read_fails_the_row_sum_check(monkeypatch):
    read = braids._read_fields

    def corrupted(colors, p, width, modulus):
        fields = read(colors, p, width, modulus)
        fields[-1][0] = (fields[-1][0] + 1) % modulus
        return fields

    monkeypatch.setattr(braids, "_read_fields", corrupted)
    with pytest.raises(InternalConsistencyError, match="does not sum to 1"):
        propagation_matrix(BraidWord(3, (1, -2, 1)), 2520)
    with pytest.raises(InternalConsistencyError, match="does not sum to 1"):
        closure_system(TorusLinkSpec(4, 3), 2**64)


def test_propagation_matches_matrix_on_torus_grid():
    rng = random.Random(11)
    for p in range(2, 8):
        for q in range(0, 15):
            word = torus_braid(p, q)
            for n in range(2, 10):
                m = propagation_matrix(word, n)
                quandle = dihedral(n)
                for _ in range(5):
                    top = tuple(rng.randrange(n) for _ in range(p))
                    assert propagate(word, quandle, top) == apply(m, top, n)


def test_propagation_matches_matrix_on_signed_words():
    rng = random.Random(12)
    for _ in range(60):
        strands = rng.randint(2, 6)
        word = random_word(rng, strands, rng.randint(1, 12))
        n = rng.randint(2, 9)
        m = propagation_matrix(word, n)
        quandle = dihedral(n)
        top = tuple(rng.randrange(n) for _ in range(strands))
        assert propagate(word, quandle, top) == apply(m, top, n)
