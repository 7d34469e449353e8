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
from braid_reference import torus_braid
from intmatrix_reference import IntMatrix, apply, det
from oracle_reference import propagate

from quandlequiver.braids import (
    BraidWord,
    TorusLinkSpec,
    closure_system,
    factor_power,
    parse_link,
    propagation_matrix,
)
from quandlequiver.quandles import DihedralQuandle, FiniteQuandle


def alexander_mod5():
    return FiniteQuandle([[(2 * x - y) % 5 for y in range(5)] for x in range(5)])


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
        length = len(word)
        # the reference: the shortest prefix whose power is the word
        d = next(d for d in range(1, length + 1)
                 if length % d == 0 and word.letters[:d] * (length // d) == word.letters)
        assert factor_power(word) == (BraidWord(4, word.letters[:d]), length // d)
    # an aperiodic word is its own factor, returned as it is
    word = BraidWord(3, (1, 2, 1, 1, 2))
    assert factor_power(word)[0] is word and factor_power(word)[1] == 1
    assert factor_power(BraidWord(3, ())) == (BraidWord(3, ()), 0)
    assert factor_power(BraidWord(3, (2, 2, 2))) == (BraidWord(3, (2,)), 3)
    assert factor_power(TorusLinkSpec(4, 6)) == (BraidWord(4, (1, 2, 3)), 6)


def test_parse_link():
    assert parse_link("torus:5,2") == TorusLinkSpec(5, 2)
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
    ):
        with pytest.raises(ValueError) as exc:
            parse_link(text)
        assert str(exc.value) == message


def test_propagate_single_positive_crossing():
    r5 = DihedralQuandle(5)
    assert propagate(BraidWord(2, (1,)), r5, (1, 3)) == (3, 0)


def test_propagate_empty_word_is_identity():
    r7 = DihedralQuandle(7)
    for top in ((0, 0, 0, 0), (1, 2, 3, 4), (6, 6, 0, 1)):
        assert propagate(BraidWord(4, ()), r7, top) == top


def test_propagate_input_validation():
    r3 = DihedralQuandle(3)
    with pytest.raises(ValueError):
        propagate(BraidWord(2, (1,)), r3, (0, 0, 0))
    with pytest.raises(ValueError):
        propagate(BraidWord(2, (1,)), r3, (0, 3))


@pytest.mark.parametrize("quandle", [DihedralQuandle(4), DihedralQuandle(5), alexander_mod5()])
def test_letter_times_inverse_is_identity(quandle):
    n = quandle.size
    for letters in ((1, -1), (-1, 1), (2, -2), (-2, 2)):
        word = BraidWord(3, letters)
        for top in product(range(n), repeat=3):
            assert propagate(word, quandle, top) == top


def test_negative_crossing_on_kei_uses_op_itself():
    # in a kei the inverse operation coincides with the operation
    r7 = DihedralQuandle(7)
    word = BraidWord(2, (-1,))
    for x in range(7):
        for y in range(7):
            assert propagate(word, r7, (x, y)) == (r7.table[y, x], x)


def test_braid_relation_on_colors():
    w1, w2 = BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2))
    for quandle in (DihedralQuandle(5), alexander_mod5()):
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


def test_propagation_matches_matrix_on_torus_grid():
    rng = random.Random(11)
    for p in range(2, 8):
        for q in range(0, 15):
            word = torus_braid(p, q)
            for n in range(2, 10):
                m = propagation_matrix(word, n)
                quandle = DihedralQuandle(n)
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
        quandle = DihedralQuandle(n)
        top = tuple(rng.randrange(n) for _ in range(strands))
        assert propagate(word, quandle, top) == apply(m, top, n)
