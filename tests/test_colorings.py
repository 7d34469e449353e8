"""Tests for coloring enumeration: brute-force oracle vs linear-algebra backend.

The two backends share nothing but the crossing convention, so list-level
agreement between them is the strongest internal check the suite has.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import enumerate_colorings as reference_colorings
from quandlequiver import colorings
from quandlequiver.braids import BraidWord, TorusLinkSpec, propagate, torus_braid
from quandlequiver.colorings import (
    NONTRIVIAL,
    TRIVIAL,
    ColoringSet,
    classify,
    enumerate_colorings_linear,
    enumerate_colorings_oracle,
)
from quandlequiver.counting import verify_counts
from quandlequiver.errors import CapExceededError
from quandlequiver.quandles import DihedralQuandle, FiniteQuandle

FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))
ALEXANDER_5 = FiniteQuandle([[(2 * x - y) % 5 for y in range(5)] for x in range(5)])


@pytest.fixture(autouse=True)
def empty_state_maps(monkeypatch):
    """Each test starts from, and leaves behind, its own empty map cache."""
    monkeypatch.setattr(colorings, "_state_maps", {})


def test_classify():
    assert classify((2, 2, 2)) == TRIVIAL
    assert classify((0,)) == TRIVIAL
    assert classify((1, 2, 1)) == NONTRIVIAL


def test_trefoil_has_nine_colorings_mod_3():
    word = torus_braid(2, 3)
    oracle = enumerate_colorings_oracle(word, DihedralQuandle(3))
    linear = enumerate_colorings_linear(word, 3)
    assert oracle.count == linear.count == 9
    assert oracle.colorings == linear.colorings


def test_figure_eight_has_25_colorings_mod_5():
    oracle = enumerate_colorings_oracle(FIGURE_EIGHT, DihedralQuandle(5))
    linear = enumerate_colorings_linear(FIGURE_EIGHT, 5)
    assert oracle.count == linear.count == 25
    assert oracle.colorings == linear.colorings
    assert len(oracle.trivial_indices) == 5


@pytest.mark.parametrize("n", list(range(2, 10)))
def test_unknot_closure_has_only_constant_colorings(n):
    # T(5,1) closes to an unknot; only the n trivial colorings survive
    word = torus_braid(5, 1)
    oracle = enumerate_colorings_oracle(word, DihedralQuandle(n))
    linear = enumerate_colorings_linear(TorusLinkSpec(5, 1), n)
    expected = [(c,) * 5 for c in range(n)]
    assert oracle.colorings == expected
    assert linear.colorings == expected


@pytest.mark.parametrize("n", list(range(2, 10)))
def test_figure_eight_backends_agree(n):
    oracle = enumerate_colorings_oracle(FIGURE_EIGHT, DihedralQuandle(n))
    linear = enumerate_colorings_linear(FIGURE_EIGHT, n)
    assert oracle.count == linear.count
    assert oracle.colorings == linear.colorings


def test_backends_agree_on_torus_grid():
    for p in (2, 3):
        for q in range(0, 8):
            word = torus_braid(p, q)
            for n in range(2, 8):
                oracle = enumerate_colorings_oracle(word, DihedralQuandle(n))
                linear = enumerate_colorings_linear(word, n)
                assert oracle.count == linear.count, (p, q, n)
                assert oracle.colorings == linear.colorings, (p, q, n)


@pytest.mark.parametrize("p,q,n", [(5, 2, 5), (5, 5, 6), (5, 10, 3), (7, 2, 3)])
def test_backends_agree_on_wider_cells(p, q, n):
    word = torus_braid(p, q)
    oracle = enumerate_colorings_oracle(word, DihedralQuandle(n))
    linear = enumerate_colorings_linear(word, n)
    assert oracle.colorings == linear.colorings


def test_colorings_are_lex_sorted_and_closed():
    word = torus_braid(5, 2)
    quandle = DihedralQuandle(5)
    cs = enumerate_colorings_oracle(word, quandle)
    assert cs.colorings == sorted(set(cs.colorings))
    for c in cs.colorings:
        assert propagate(word, quandle, c) == c


def test_trivial_colorings_are_the_constants():
    word = torus_braid(5, 5)
    cs = enumerate_colorings_linear(word, 6)
    trivial = [cs.colorings[i] for i in cs.trivial_indices]
    assert trivial == [(c,) * 5 for c in range(6)]
    assert len(cs.nontrivial_indices) == cs.count - 6


def test_oracle_works_on_non_dihedral_tables():
    cs = enumerate_colorings_oracle(FIGURE_EIGHT, ALEXANDER_5)
    assert cs.count == len(cs.colorings)
    for c in cs.colorings:
        assert propagate(FIGURE_EIGHT, ALEXANDER_5, c) == c


def factors(signed=True):
    """(strands, factor letters): a word of up to 5 letters on 1 to 4 strands."""

    def letter(strands):
        k = st.integers(1, strands - 1)
        return k.flatmap(lambda k: st.sampled_from((k, -k))) if signed else k

    return st.integers(1, 4).flatmap(
        lambda strands: st.tuples(
            st.just(strands),
            st.lists(letter(strands), max_size=5) if strands > 1 else st.just([]),
        )
    )


def assert_oracle_matches_reference(word, quandle):
    expected = reference_colorings(word, quandle)
    cs = enumerate_colorings_oracle(word, quandle)
    assert cs.colorings == expected
    assert cs.count == len(expected)
    assert enumerate_colorings_oracle(word, quandle, count_only=True).count == len(expected)
    return cs


@settings(max_examples=150, deadline=None)
@given(factors(), st.integers(0, 6), st.integers(2, 9))
def test_oracle_matches_reference_on_dihedral_powers(factor, q, n):
    strands, letters = factor
    word = BraidWord(strands, tuple(letters) * q)
    cs = assert_oracle_matches_reference(word, DihedralQuandle(n))
    assert cs.colorings == enumerate_colorings_linear(word, n).colorings


@settings(max_examples=60, deadline=None)
@given(factors(), st.integers(0, 6))
def test_oracle_matches_reference_on_non_dihedral_quandle(factor, q):
    strands, letters = factor
    assert_oracle_matches_reference(BraidWord(strands, tuple(letters) * q), ALEXANDER_5)


@settings(max_examples=60, deadline=None)
@given(
    factors(signed=False),
    st.integers(0, 6),
    st.integers(2, 5).flatmap(
        lambda m: st.lists(st.lists(st.integers(0, m - 1), min_size=m, max_size=m), min_size=m, max_size=m)
    ),
)
def test_oracle_matches_reference_on_non_bijective_tables(factor, q, table):
    # rows and columns need not be permutations; positive letters never read the inverse
    strands, letters = factor
    assert_oracle_matches_reference(BraidWord(strands, tuple(letters) * q), FiniteQuandle(table))


def test_oracle_cap_raises_naming_count():
    with pytest.raises(CapExceededError) as exc:
        enumerate_colorings_oracle(torus_braid(5, 2), DihedralQuandle(17), cap=100)
    assert exc.value.count == 17**5


def test_oracle_cap_is_checked_before_any_map_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("state map built over the cap")

    monkeypatch.setattr(colorings, "_state_map", fail)
    with pytest.raises(CapExceededError):
        enumerate_colorings_oracle(torus_braid(5, 2), DihedralQuandle(17), cap=100)
    with pytest.raises(CapExceededError):
        enumerate_colorings_oracle(BraidWord(3, (1, -2, 1)), DihedralQuandle(5), cap=124)


def test_state_maps_hold_one_factor():
    verify_counts([5], range(4), range(2, 5))
    assert {key[0] for key in colorings._state_maps} == {((1, 2, 3, 4), 5)}
    verify_counts([7], range(4), range(2, 5))
    assert {key[0] for key in colorings._state_maps} == {((1, 2, 3, 4, 5, 6), 7)}
    assert sorted(len(m) for m in colorings._state_maps.values()) == [2**7, 3**7, 4**7]


def test_aperiodic_words_never_enter_the_state_maps():
    for word in (BraidWord(3, (1, -2, 1)), torus_braid(5, 1), torus_braid(5, 0)):
        enumerate_colorings_oracle(word, DihedralQuandle(5))
    assert colorings._state_maps == {}
    enumerate_colorings_oracle(FIGURE_EIGHT, DihedralQuandle(5))  # (s1 s2^-1)^2
    assert [key[0] for key in colorings._state_maps] == [((1, -2), 3)]


def test_cached_state_maps_are_read_only():
    enumerate_colorings_oracle(torus_braid(5, 3), DihedralQuandle(5))
    [state_map] = colorings._state_maps.values()
    assert state_map.dtype == np.int32
    with pytest.raises(ValueError):
        state_map[0] = 1


def test_linear_cap_degrades_to_count_only():
    cs = enumerate_colorings_linear(torus_braid(5, 0), 9, cap=100)
    assert cs.count == 9**5
    assert cs.colorings is None
    with pytest.raises(ValueError):
        cs.trivial_indices


def test_oracle_count_only_skips_list():
    cs = enumerate_colorings_oracle(FIGURE_EIGHT, DihedralQuandle(5), count_only=True)
    assert cs.count == 25
    assert cs.colorings is None


def test_linear_accepts_spec_and_word():
    by_spec = enumerate_colorings_linear(TorusLinkSpec(3, 4), 9)
    by_word = enumerate_colorings_linear(torus_braid(3, 4), 9)
    assert by_spec.count == by_word.count
    assert by_spec.colorings == by_word.colorings


def test_coloring_set_count_consistency():
    word = torus_braid(2, 3)
    with pytest.raises(ValueError):
        ColoringSet(word, DihedralQuandle(3), 4, [(0, 0)])
