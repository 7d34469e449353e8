"""Tests for coloring enumeration: brute-force oracle vs linear-algebra backend.

The two backends share nothing but the crossing convention, so list-level
agreement between them is the strongest internal check the suite has.
"""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import enumerate_colorings as reference_colorings
from oracle_reference import propagate
from quandlequiver import colorings
from quandlequiver.braids import BraidWord, TorusLinkSpec, closure_system, factor_power, torus_braid
from quandlequiver.colorings import (
    ColoringSet,
    enumerate_colorings_linear,
    enumerate_colorings_oracle,
)
from quandlequiver.counting import verify_counts
from quandlequiver.errors import CapExceededError
from quandlequiver.linalg import kernel_count_from_snf, smith_normal_form
from quandlequiver.quandles import DihedralQuandle, FiniteQuandle, affine_endomorphisms
from quandlequiver.quivers import build_quiver

FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))
ALEXANDER_5 = FiniteQuandle([[(2 * x - y) % 5 for y in range(5)] for x in range(5)])
# R_5 with the colours 0 and 1 swapped: still a quandle, but x -> x + 1 is no
# longer an automorphism of its table
SWAP = (1, 0, 2, 3, 4)
RELABELLED_R5 = FiniteQuandle(
    [[SWAP[(2 * SWAP[y] - SWAP[x]) % 5] for y in range(5)] for x in range(5)]
)


def trivial_quandle(m):
    """x * y = x on m elements."""
    return FiniteQuandle([[x] * m for x in range(m)])


def test_trefoil_has_nine_colorings_mod_3():
    word = torus_braid(2, 3)
    oracle = enumerate_colorings_oracle(word, DihedralQuandle(3))
    linear = enumerate_colorings_linear(word, 3)
    assert oracle.count == linear.count == 9
    assert np.array_equal(oracle.colorings, linear.colorings)


def test_figure_eight_has_25_colorings_mod_5():
    oracle = enumerate_colorings_oracle(FIGURE_EIGHT, DihedralQuandle(5))
    linear = enumerate_colorings_linear(FIGURE_EIGHT, 5)
    assert oracle.count == linear.count == 25
    assert np.array_equal(oracle.colorings, linear.colorings)
    assert len(oracle.trivial_indices) == 5


@pytest.mark.parametrize("n", list(range(2, 10)))
def test_unknot_closure_has_only_constant_colorings(n):
    # T(5,1) closes to an unknot; only the n trivial colorings survive
    word = torus_braid(5, 1)
    oracle = enumerate_colorings_oracle(word, DihedralQuandle(n))
    linear = enumerate_colorings_linear(TorusLinkSpec(5, 1), n)
    expected = [(c,) * 5 for c in range(n)]
    assert np.array_equal(oracle.colorings, expected)
    assert np.array_equal(linear.colorings, expected)


@pytest.mark.parametrize("n", list(range(2, 10)))
def test_figure_eight_backends_agree(n):
    oracle = enumerate_colorings_oracle(FIGURE_EIGHT, DihedralQuandle(n))
    linear = enumerate_colorings_linear(FIGURE_EIGHT, n)
    assert oracle.count == linear.count
    assert np.array_equal(oracle.colorings, linear.colorings)


def test_backends_agree_on_torus_grid():
    for p in (2, 3):
        for q in range(0, 8):
            word = torus_braid(p, q)
            for n in range(2, 8):
                oracle = enumerate_colorings_oracle(word, DihedralQuandle(n))
                linear = enumerate_colorings_linear(word, n)
                assert oracle.count == linear.count, (p, q, n)
                assert np.array_equal(oracle.colorings, linear.colorings), (p, q, n)


@pytest.mark.parametrize("p,q,n", [(5, 2, 5), (5, 5, 6), (5, 10, 3), (7, 2, 3)])
def test_backends_agree_on_wider_cells(p, q, n):
    word = torus_braid(p, q)
    oracle = enumerate_colorings_oracle(word, DihedralQuandle(n))
    linear = enumerate_colorings_linear(word, n)
    assert np.array_equal(oracle.colorings, linear.colorings)


def test_colorings_are_lex_sorted_and_closed():
    word = torus_braid(5, 2)
    quandle = DihedralQuandle(5)
    cs = enumerate_colorings_oracle(word, quandle)
    rows = list(map(tuple, cs.colorings.tolist()))
    assert rows == sorted(set(rows))
    for c in rows:
        assert propagate(word, quandle, c) == c


def test_trivial_colorings_are_the_constants():
    word = torus_braid(5, 5)
    cs = enumerate_colorings_linear(word, 6)
    assert np.array_equal(cs.colorings[cs.trivial_indices], [(c,) * 5 for c in range(6)])


def test_oracle_works_on_non_dihedral_tables():
    cs = enumerate_colorings_oracle(FIGURE_EIGHT, ALEXANDER_5)
    assert cs.count == len(cs.colorings)
    for c in map(tuple, cs.colorings.tolist()):
        assert propagate(FIGURE_EIGHT, ALEXANDER_5, c) == c


def factors(signed=True, strands=(1, 6), letters=12):
    """(strands, factor letters): a word of up to `letters` letters on a
    number of strands in the range `strands`."""

    def letter(strands):
        k = st.integers(1, strands - 1)
        return k.flatmap(lambda k: st.sampled_from((k, -k))) if signed else k

    return st.integers(*strands).flatmap(
        lambda strands: st.tuples(
            st.just(strands),
            st.lists(letter(strands), max_size=letters) if strands > 1 else st.just([]),
        )
    )


@st.composite
def dihedral_cells(draw):
    """(strands, factor letters, n) with n in 2..9 and n**strands <= 6**6."""
    strands, letters = draw(factors())
    n = draw(st.integers(2, max(m for m in range(2, 10) if m**strands <= 6**6)))
    return strands, letters, n


# window table sizes: below m**2 every window is one run on two strands, and
# small sizes make short words cross many window boundaries
WINDOW_STATES = (1, 4, 8, 27, 64, 1 << 16)


def assert_oracle_matches_reference(word, quandle, window_states):
    expected = reference_colorings(word, quandle)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colorings, "_WINDOW_STATES", window_states)
        cs = enumerate_colorings_oracle(word, quandle)
        count = colorings.oracle_counts(word, quandle, [1])[1]
    assert np.array_equal(cs.colorings, expected)
    assert cs.count == count == len(expected)
    return cs


@settings(max_examples=150)
@given(dihedral_cells(), st.integers(0, 6), st.sampled_from(WINDOW_STATES))
def test_oracle_matches_reference_on_dihedral_powers(cell, q, window_states):
    strands, letters, n = cell
    word = BraidWord(strands, tuple(letters) * q)
    cs = assert_oracle_matches_reference(word, DihedralQuandle(n), window_states)
    assert np.array_equal(cs.colorings, enumerate_colorings_linear(word, n).colorings)


@settings(max_examples=60)
@given(factors(), st.integers(0, 6), st.sampled_from(WINDOW_STATES))
def test_oracle_matches_reference_on_non_dihedral_quandle(factor, q, window_states):
    strands, letters = factor
    word = BraidWord(strands, tuple(letters) * q)
    assert_oracle_matches_reference(word, ALEXANDER_5, window_states)


@settings(max_examples=60)
@given(
    factors(signed=False),
    st.integers(0, 6),
    st.sampled_from(WINDOW_STATES),
    st.integers(2, 5).flatmap(
        lambda m: st.lists(st.lists(st.integers(0, m - 1), min_size=m, max_size=m), min_size=m, max_size=m)
    ),
)
def test_oracle_matches_reference_on_non_bijective_tables(factor, q, window_states, table):
    # rows and columns need not be permutations; positive letters never read the inverse
    strands, letters = factor
    word = BraidWord(strands, tuple(letters) * q)
    assert_oracle_matches_reference(word, FiniteQuandle(table), window_states)


@st.composite
def oracle_quandles(draw):
    """(strands, factor letters, quandle): a dihedral quandle, ALEXANDER_5, a
    trivial quandle, RELABELLED_R5, or a table whose rows and columns need
    not be permutations (positive letters only), with at most 6**6 states."""
    kind = draw(st.sampled_from(("dihedral", "alexander", "trivial", "relabelled", "table")))
    strands, letters = draw(factors(signed=kind != "table", letters=8))
    largest = max(m for m in range(2, 10) if m**strands <= 6**6)
    if kind == "dihedral":
        quandle = DihedralQuandle(draw(st.integers(2, largest)))
    elif kind == "alexander":
        quandle = ALEXANDER_5
    elif kind == "trivial":
        quandle = trivial_quandle(draw(st.integers(1, largest)))
    elif kind == "relabelled":
        quandle = RELABELLED_R5
    else:
        m = draw(st.integers(2, 5))
        row = st.lists(st.integers(0, m - 1), min_size=m, max_size=m)
        quandle = FiniteQuandle(draw(st.lists(row, min_size=m, max_size=m)))
    return strands, tuple(letters), quandle


@settings(max_examples=100)
@given(
    oracle_quandles(),
    st.integers(0, 2),
    st.lists(st.integers(0, 5), max_size=6),
    st.sampled_from(WINDOW_STATES),
)
def test_batched_counts_match_per_power_oracle(cell, r, powers, window_states):
    # powers may repeat, come unsorted, or hold 0 and 1; the word is factor**r
    strands, letters, quandle = cell
    word = BraidWord(strands, letters * r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colorings, "_WINDOW_STATES", window_states)
        counts = colorings.oracle_counts(word, quandle, powers)
        per_power = {
            k: enumerate_colorings_oracle(BraidWord(strands, word.letters * k), quandle).count
            for k in powers
        }
    assert counts == per_power
    for k in set(powers):
        assert counts[k] == len(reference_colorings(BraidWord(strands, word.letters * k), quandle))


@settings(max_examples=150)
@given(oracle_quandles(), st.sampled_from(WINDOW_STATES), st.sampled_from((7, 1 << 16)))
def test_orbit_counts_match_reference(cell, window_states, slab):
    # one top per shift orbit times m, or every top when the shift check
    # fails, must count what the per-letter reference finds on every top
    strands, letters, quandle = cell
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colorings, "_WINDOW_STATES", window_states)
        mp.setattr(colorings, "_SLAB", slab)
        counts = colorings.oracle_counts(BraidWord(strands, letters), quandle, [0, 1, 2, 3])
    assert counts == {
        k: len(reference_colorings(BraidWord(strands, letters * k), quandle)) for k in range(4)
    }


@pytest.mark.parametrize(
    "quandle,orbit",
    [
        (DihedralQuandle(1), 1),
        (DihedralQuandle(2), 2),
        (DihedralQuandle(9), 9),
        (ALEXANDER_5, 5),
        (trivial_quandle(4), 4),
        (RELABELLED_R5, 1),
        (FiniteQuandle([[0, 0], [0, 0]]), 1),
    ],
)
@pytest.mark.parametrize("batch", [1, 1 << 16])
def test_shift_check_on_each_table_kind(quandle, orbit, batch, monkeypatch):
    # a batch of 1 entry checks one row at a time
    monkeypatch.setattr(colorings, "_SHIFT_ENTRIES", batch)
    assert colorings._shift_orbit(quandle) == orbit


def walked_tops(monkeypatch) -> list[int]:
    """Record the number of tops of every slab _power_slabs yields from now on."""
    walked = []
    slabs = colorings._power_slabs

    def recording(*args):
        for power, tops, bottoms in slabs(*args):
            walked.append(len(tops))
            yield power, tops, bottoms

    monkeypatch.setattr(colorings, "_power_slabs", recording)
    return walked


@pytest.mark.parametrize("power", [1, 3])
@pytest.mark.parametrize(
    "quandle,tops", [(DihedralQuandle(5), 5**3), (ALEXANDER_5, 5**3), (RELABELLED_R5, 5**4)]
)
def test_counts_walk_one_top_per_shift_orbit(quandle, tops, power, monkeypatch):
    # the state map of power 3 still spans all 5**4 states; only the walked
    # tops shrink.  Listing the colorings always walks every top.
    word = BraidWord(4, (1, -2, 3, 2))
    walked = walked_tops(monkeypatch)
    count = colorings.oracle_counts(word, quandle, [power])[power]
    assert sum(walked) == tops
    walked.clear()
    cs = enumerate_colorings_oracle(BraidWord(4, word.letters * power), quandle)
    assert sum(walked) == 5**4
    assert count == cs.count


def test_shift_check_holds_one_row_batch():
    # R_3000's table is 72 MB; the check may hold a few copies of one batch
    quandle = DihedralQuandle(3000)
    orbits = []
    assert peak_bytes(lambda: orbits.append(colorings._shift_orbit(quandle))) < 3 * 2**20
    assert orbits == [3000]


def table_entries(cover, m):
    return sum(m**width for _, width, _ in cover)


@settings(max_examples=200)
@given(factors(strands=(2, 9), letters=40), st.integers(2, 16), st.sampled_from(WINDOW_STATES))
def test_window_cover(factor, m, window_states):
    strands, letters = factor
    letters = tuple(letters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colorings, "_WINDOW_STATES", window_states)
        k, cover = colorings._windows(letters, strands, m)
    assert 2 <= k <= strands
    assert k == 2 or m**k <= window_states
    assert tuple(l for _, _, run in cover for l in run) == letters
    for lo, width, run in cover:
        touched = [abs(l) - 1 for l in run]
        assert (lo, lo + width) == (min(touched), max(touched) + 2)
        assert width <= k
    for (lo, width, _), (lo2, width2, _) in zip(cover, cover[1:]):
        assert max(lo + width, lo2 + width2) - min(lo, lo2) > k  # could not merge
    # the table budget holds, and no wider window would have kept it
    assert k == 2 or 4 * table_entries(cover, m) <= m**strands
    for wider in range(k + 1, strands + 1):
        if m**wider <= window_states:
            assert 4 * table_entries(colorings._cover(letters, wider), m) > m**strands


def test_oracle_cap_raises_naming_count():
    with pytest.raises(CapExceededError) as exc:
        enumerate_colorings_oracle(torus_braid(5, 2), DihedralQuandle(17), cap=100)
    assert exc.value.count == 17**5


def test_oracle_cap_is_checked_before_any_map_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("window tables built over the cap")

    monkeypatch.setattr(colorings, "_window_steps", fail)
    with pytest.raises(CapExceededError):
        enumerate_colorings_oracle(torus_braid(5, 2), DihedralQuandle(17), cap=100)
    with pytest.raises(CapExceededError):
        enumerate_colorings_oracle(BraidWord(3, (1, -2, 1)), DihedralQuandle(5), cap=124)


def test_batched_cap_is_checked_before_any_map_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("state map built over the cap")

    monkeypatch.setattr(colorings, "_window_steps", fail)
    monkeypatch.setattr(colorings, "_factor_map", fail)
    with pytest.raises(CapExceededError) as exc:
        colorings.oracle_counts(torus_braid(5, 1), DihedralQuandle(17), range(10), cap=100)
    assert exc.value.count == 17**5


def built_state_maps(monkeypatch) -> list[tuple[int, int]]:
    """Record (strands, quandle size) of every state map built from now on."""
    built = []
    build = colorings._factor_map

    def recording(factor, strands, quandle):
        built.append((strands, quandle.size))
        return build(factor, strands, quandle)

    monkeypatch.setattr(colorings, "_factor_map", recording)
    return built


def test_verify_builds_one_state_map_per_oracle_modulus(monkeypatch):
    built = built_state_maps(monkeypatch)
    verify_counts([7], range(15), range(2, 8), cap=10**6)
    assert sorted(built) == [(7, n) for n in range(2, 8)]


def test_only_periodic_words_build_a_state_map(monkeypatch):
    built = built_state_maps(monkeypatch)
    for word in (BraidWord(3, (1, -2, 1)), torus_braid(5, 1), torus_braid(5, 0)):
        enumerate_colorings_oracle(word, DihedralQuandle(5))
    assert built == []
    enumerate_colorings_oracle(FIGURE_EIGHT, DihedralQuandle(5))  # (s1 s2^-1)^2
    assert built == [(3, 5)]


def peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_grid_holds_one_state_map_at_a_time():
    # a 7**7 map takes 4 bytes per state and its window tables at most 1;
    # keeping every modulus's map of the factor would take 5.8
    peak = peak_bytes(lambda: verify_counts([7], range(15), range(2, 8), cap=10**6))
    assert peak < 7.5 * 7**7


def linear_count(word, n) -> int:
    return kernel_count_from_snf(smith_normal_form(closure_system(word, n), n), n)


def test_aperiodic_word_holds_no_state_map():
    # 5^9 states: a whole state map would take 4 bytes each, and the window
    # tables of the 400-letter word may take at most 1
    rng = random.Random(9)
    long_word = BraidWord(9, tuple(rng.choice((1, -1)) * rng.randint(1, 8) for _ in range(400)))
    assert factor_power(long_word)[1] == 1
    assert colorings._windows(long_word.letters, 9, 5)[0] > 2
    cells = [
        (BraidWord(9, (1, 2, 3, 4, 5, 6, 7, 8, -1)), 25),
        (long_word, linear_count(long_word, 5)),
    ]
    for word, expected in cells:
        tracemalloc.start()
        try:
            count = colorings.oracle_counts(word, DihedralQuandle(5), [1])[1]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == expected
        assert peak < 2 * 5**9


def test_repeated_window_runs_share_one_table():
    # on 3 strands by R_100 every window is a run on two strands (k = 2) with
    # a 10**4-entry table; a random 400-letter word has 196 runs, 52 distinct
    rng = random.Random(3)
    word = BraidWord(3, tuple(rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(400)))
    assert factor_power(word)[1] == 1
    assert colorings._windows(word.letters, 3, 100)[0] == 2
    expected = linear_count(word, 100)
    counts = []
    peak = peak_bytes(lambda: counts.append(colorings.oracle_counts(word, DihedralQuandle(100), [1])[1]))
    assert counts == [expected]
    assert peak < 6 * 100**3


def test_linear_cap_raises_naming_count():
    with pytest.raises(CapExceededError) as exc:
        enumerate_colorings_linear(torus_braid(5, 0), 9, cap=100)
    assert exc.value.count == 9**5


def test_linear_cap_is_checked_before_the_quandle_is_built(monkeypatch):
    # R_n is an n-by-n table: at n = 10**20 building it would never end
    def refuse(n):
        raise AssertionError(f"DihedralQuandle({n}) built before the cap check")

    monkeypatch.setattr(colorings, "DihedralQuandle", refuse)
    with pytest.raises(CapExceededError) as exc:
        enumerate_colorings_linear(TorusLinkSpec(3, 2), 10**20)
    assert exc.value.count == 10**20


def test_linear_accepts_spec_and_word():
    by_spec = enumerate_colorings_linear(TorusLinkSpec(3, 4), 9)
    by_word = enumerate_colorings_linear(torus_braid(3, 4), 9)
    assert by_spec.count == by_word.count
    assert np.array_equal(by_spec.colorings, by_word.colorings)


def test_linear_colorings_hold_one_int64_per_colour():
    # T(5,10) by R_9: 59049 colorings of 5 strands, 40 bytes of colours each
    tracemalloc.start()
    try:
        cs = enumerate_colorings_linear(TorusLinkSpec(5, 10), 9)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cs.count == 9**5
    assert held <= 48 * cs.count


def test_coloring_rows_must_span_the_strands():
    word = torus_braid(3, 2)
    r3 = DihedralQuandle(3)
    assert ColoringSet(word, r3, [(0, 1, 2)]).colorings.shape == (1, 3)
    for bad in ([(0, 1)], [(0, 1, 2, 0)], [0, 1, 2], [(0, 1, 2), (0, 1)]):
        with pytest.raises(ValueError):
            ColoringSet(word, r3, bad)


def test_colorings_and_labels_are_read_only():
    cs = enumerate_colorings_linear(TorusLinkSpec(3, 2), 3)
    quiver = build_quiver(cs, affine_endomorphisms(3))
    for array in (cs.colorings, quiver.labels, enumerate_colorings_oracle(cs.link, cs.quandle).colorings):
        with pytest.raises(ValueError):
            array[0, 0] = 1
