"""Tests for colorings: the brute-force oracle's counts and the linear
backend's listing, against the per-letter reference and each other.

The two backends share nothing but the crossing convention, so agreement
between them, and of the linear listing with the reference's, is the
strongest internal check the suite has.
"""

import math
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braid_reference import torus_braid
from oracle_reference import coloring_set as reference_set
from oracle_reference import enumerate_colorings as reference_colorings
from oracle_reference import propagate
from quandle_reference import dihedral
from quandlequiver import braids, colorings
from quandlequiver.braids import BraidWord, TorusLinkSpec, closure_system, factor_power
from quandlequiver.colorings import ColoringSet, enumerate_colorings_linear
from quandlequiver.counting import evaluate_cells, verify_counts
from quandlequiver.errors import CapExceededError
from quandlequiver.linalg import kernel_count_from_snf, row_keys, smith_normal_form
from quandlequiver.quivers import build_quiver

FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))


def assert_backends_agree(word, n):
    """The linear listing equals the reference's, and the oracle counts it."""
    reference = reference_set(word, dihedral(n))
    linear = enumerate_colorings_linear(word, n)
    assert np.array_equal(reference.colorings, linear.colorings)
    assert colorings.oracle_counts(word, n, [1]) == {1: linear.count}
    return linear


def test_trefoil_has_nine_colorings_mod_3():
    assert assert_backends_agree(torus_braid(2, 3), 3).count == 9


def test_figure_eight_has_25_colorings_mod_5():
    linear = assert_backends_agree(FIGURE_EIGHT, 5)
    assert linear.count == 25
    assert len(linear.trivial_indices) == 5


@pytest.mark.parametrize("n", list(range(2, 10)))
def test_unknot_closure_has_only_constant_colorings(n):
    # T(5,1) closes to an unknot; only the n trivial colorings survive
    word = torus_braid(5, 1)
    expected = [(c,) * 5 for c in range(n)]
    assert np.array_equal(assert_backends_agree(word, n).colorings, expected)
    assert np.array_equal(enumerate_colorings_linear(TorusLinkSpec(5, 1), n).colorings, expected)


@pytest.mark.parametrize("n", list(range(2, 10)))
def test_figure_eight_backends_agree(n):
    assert_backends_agree(FIGURE_EIGHT, n)


def test_backends_agree_on_torus_grid():
    for p in (2, 3):
        for q in range(0, 8):
            for n in range(2, 8):
                assert_backends_agree(torus_braid(p, q), n)


@pytest.mark.parametrize("p,q,n", [(5, 2, 5), (5, 5, 6), (5, 10, 3), (7, 2, 3)])
def test_backends_agree_on_wider_cells(p, q, n):
    assert_backends_agree(torus_braid(p, q), n)


def test_colorings_are_lex_sorted_and_closed():
    word = torus_braid(5, 2)
    quandle = dihedral(5)
    cs = enumerate_colorings_linear(word, 5)
    rows = list(map(tuple, cs.colorings.tolist()))
    assert rows == sorted(set(rows))
    for c in rows:
        assert propagate(word, quandle, c) == c


def test_trivial_colorings_are_the_constants():
    word = torus_braid(5, 5)
    cs = enumerate_colorings_linear(word, 6)
    assert np.array_equal(cs.colorings[cs.trivial_indices], [(c,) * 5 for c in range(6)])


def test_dihedral_tables_are_shift_invariant_and_involutive():
    # the oracle walks one top per orbit of x -> a*x + b, a a unit, because
    # each is an automorphism of R_r, (a*x + b) * (a*y + b) = a*(x * y) + b,
    # and reads a negative crossing from the table itself because
    # (z * y) * y = z; its table is the reference's, entry for entry
    for r in range(1, 201):
        table = colorings._dihedral_table(r)
        assert np.array_equal(table, dihedral(r).table), r
        shift = (np.arange(r) + 1) % r
        assert np.array_equal(table[np.ix_(shift, shift)], shift[table]), r
        for a in (a for a in range(1, r) if math.gcd(a, r) == 1):
            scale = (np.arange(r) * a % r).astype(table.dtype)
            assert np.array_equal(table.take(scale, 0).take(scale, 1), scale.take(table)), (r, a)
        assert (table[table, np.arange(r)] == np.arange(r)[:, None]).all(), r


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
def dihedral_cells(draw, least=2, length=12):
    """(strands, factor letters, n) with n in least..9, a factor of up to
    `length` letters and n**strands <= 6**6."""
    strands, letters = draw(factors(letters=length))
    n = draw(st.integers(least, max(m for m in range(2, 10) if m**strands <= 6**6)))
    return strands, tuple(letters), n


# window table sizes: below m**2 every window is one run on two strands, and
# small sizes make short words cross many window boundaries
WINDOW_STATES = (1, 4, 8, 27, 64, 1 << 16)


def window_walk(mp, window_states):
    """Push every walk through window tables of at most `window_states`
    entries, however few states it pushes."""
    mp.setattr(colorings, "_WINDOW_STATES", window_states)
    mp.setattr(colorings, "_PUSH_STATES", 0)


def assert_oracle_matches_reference(word, n, window_states):
    """The oracle counts the reference's colorings by R_n; returns them as a ColoringSet."""
    expected = reference_set(word, dihedral(n))
    with pytest.MonkeyPatch.context() as mp:
        window_walk(mp, window_states)
        count = colorings.oracle_counts(word, n, [1])[1]
    assert count == expected.count
    return expected


@settings(max_examples=150)
@given(dihedral_cells(), st.integers(0, 6), st.sampled_from(WINDOW_STATES))
def test_oracle_matches_reference_on_dihedral_powers(cell, q, window_states):
    strands, letters, n = cell
    word = BraidWord(strands, letters * q)
    cs = assert_oracle_matches_reference(word, n, window_states)
    assert np.array_equal(cs.colorings, enumerate_colorings_linear(word, n).colorings)


@settings(max_examples=100)
@given(
    dihedral_cells(least=1, length=8),
    st.integers(0, 2),
    st.lists(st.integers(0, 5), max_size=6),
    st.sampled_from(WINDOW_STATES),
)
def test_batched_counts_match_per_power_oracle(cell, r, powers, window_states):
    # powers may repeat, come unsorted, or hold 0 and 1; the word is factor**r
    strands, letters, n = cell
    word = BraidWord(strands, letters * r)
    with pytest.MonkeyPatch.context() as mp:
        window_walk(mp, window_states)
        counts = colorings.oracle_counts(word, n, powers)
        per_power = {
            k: colorings.oracle_counts(BraidWord(strands, word.letters * k), n, [1])[1]
            for k in powers
        }
    assert counts == per_power
    for k in set(powers):
        assert counts[k] == len(reference_colorings(BraidWord(strands, word.letters * k), dihedral(n)))


@settings(max_examples=150)
@given(dihedral_cells(least=1, length=8), st.sampled_from(WINDOW_STATES), st.sampled_from((7, 1 << 16)))
def test_orbit_counts_match_reference(cell, window_states, slab):
    # one top per orbit, weighed by its size, must count what the
    # per-letter reference finds on every top
    strands, letters, n = cell
    with pytest.MonkeyPatch.context() as mp:
        window_walk(mp, window_states)
        mp.setattr(colorings, "_SLAB", slab)
        counts = colorings.oracle_counts(BraidWord(strands, letters), n, [0, 1, 2, 3])
    quandle = dihedral(n)
    assert counts == {
        k: len(reference_colorings(BraidWord(strands, letters * k), quandle)) for k in range(4)
    }


# the prime powers `count --n 2..15` walks, and larger ones up to 5**3
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 81, 121, 125)


@st.composite
def prime_power_cells(draw):
    """(strands, factor letters, r): r a prime power, on at most as many
    strands as keep r**strands <= 27**3, and a factor of up to 8 letters."""
    r = draw(st.sampled_from(PRIME_POWERS))
    strands, letters = draw(factors(strands=(1, max(s for s in range(1, 8) if r**s <= 27**3)), letters=8))
    return strands, tuple(letters), r


@pytest.mark.parametrize("push_states", [0, 1 << 30], ids=["tables", "letter-by-letter"])
@settings(max_examples=60)
@given(prime_power_cells(), st.sampled_from((7, 1 << 16)))
def test_prime_power_counts_match_reference(push_states, cell, slab):
    # both walks (window tables for powers <= 1, the state map above), each
    # with every state through window tables (0) or letter by letter; small
    # slabs split the walked tops into leading and trailing colours
    strands, letters, r = cell
    word = BraidWord(strands, letters)
    quandle = dihedral(r)
    expected = {k: len(reference_colorings(BraidWord(strands, letters * k), quandle)) for k in range(4)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colorings, "_PUSH_STATES", push_states)
        mp.setattr(colorings, "_SLAB", slab)
        assert colorings.oracle_counts(word, r, [0, 1, 2, 3]) == expected
        assert colorings.oracle_counts(word, r, [1, 0]) == {0: expected[0], 1: expected[1]}


def walked_tops(monkeypatch) -> list[int]:
    """Record the number of tops of every slab _power_slabs yields from now on."""
    walked = []
    slabs = colorings._power_slabs

    def recording(*args):
        for power, lead, tops, bottoms in slabs(*args):
            walked.append(len(tops))
            yield power, lead, tops, bottoms

    monkeypatch.setattr(colorings, "_power_slabs", recording)
    return walked


@pytest.mark.parametrize("power", [1, 3])
@pytest.mark.parametrize("r,tops", [(4, 2**3 + (4**3 - 2**3) // 2), (5, 1 + (5**3 - 1) // 4),
                                    (9, 3**3 + (9**3 - 3**3) // 6), (6, 6**3)])
def test_counts_walk_one_top_per_automorphism_orbit(r, tops, power, monkeypatch):
    # R_4, R_5 and R_9 on 4 strands walk (r/l)**3 tops of multiples of l and
    # one top per free orbit of the phi(r) unit scalings among the other
    # r**3 - (r/l)**3 with strand 1 coloured 0: 36, 32 and 144.  The
    # composite R_6 walks all 6**3.  The state map of power 3 still spans
    # all r**4 states; only the walked tops shrink, and the count is still
    # that of every top
    word = BraidWord(4, (1, -2, 3, 2))
    walked = walked_tops(monkeypatch)
    count = colorings.oracle_counts(word, r, [power])[power]
    assert sum(walked) == tops
    assert count == len(reference_colorings(BraidWord(4, word.letters * power), dihedral(r)))


def test_walk_past_2_31_states_indexes_in_int64(monkeypatch):
    # 1291**3 > 2**31: the 1293 walked tops all lie below 2**31, but their
    # bottoms need not, so tops and bottoms alike are int64
    dtypes = set()
    slabs = colorings._power_slabs

    def recording(*args):
        for power, lead, tops, bottoms in slabs(*args):
            dtypes.update((tops.dtype, bottoms.dtype))
            yield power, lead, tops, bottoms

    monkeypatch.setattr(colorings, "_power_slabs", recording)
    for letters in ((1,), (-1, 1), (1, -2, -1)):
        word = BraidWord(3, letters)
        assert colorings.oracle_counts(word, 1291, [1]) == {1: linear_count(word, 1291)}
    assert dtypes == {np.dtype(np.int64)}


def table_entries(cover, m):
    return sum(m**width for _, width, _ in cover)


@settings(max_examples=200)
@given(
    factors(strands=(2, 9), letters=40), st.integers(2, 16), st.sampled_from(WINDOW_STATES),
    st.booleans(),
)
def test_window_cover(factor, m, window_states, one_per_orbit):
    # the walk pushes every state, or only those with strand 1 coloured 0
    strands, letters = factor
    letters = tuple(letters)
    states = m ** (strands - 1) if one_per_orbit else m**strands
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colorings, "_WINDOW_STATES", window_states)
        k, cover = colorings._windows(letters, strands, m, states)
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
    assert k == 2 or 4 * table_entries(cover, m) <= states
    for wider in range(k + 1, strands + 1):
        if m**wider <= window_states:
            assert 4 * table_entries(colorings._cover(letters, wider), m) > states


def oracle_cells(links, n, cap=None):
    """The oracle's counts of links by R_n, from one evaluate_cells call."""
    cells = evaluate_cells(links, [n], formula=False, linear=False, oracle_ns=[n], cap=cap)
    return [cell.computed_oracle for cell in cells]


def test_oracle_cap_raises_naming_count():
    with pytest.raises(CapExceededError) as exc:
        oracle_cells([torus_braid(5, 2)], 17, cap=100)
    assert exc.value.count == 17**5


def test_oracle_cap_is_checked_before_any_map_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("tops pushed over the cap")

    monkeypatch.setattr(colorings, "_window_steps", fail)
    monkeypatch.setattr(colorings, "_push", fail)
    with pytest.raises(CapExceededError):
        oracle_cells([torus_braid(5, 2)], 17, cap=100)
    with pytest.raises(CapExceededError):
        oracle_cells([BraidWord(3, (1, -2, 1))], 5, cap=124)


def test_batched_cap_is_checked_before_any_map_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("state map built over the cap")

    monkeypatch.setattr(colorings, "_window_steps", fail)
    monkeypatch.setattr(colorings, "_factor_map", fail)
    with pytest.raises(CapExceededError) as exc:
        oracle_cells([TorusLinkSpec(5, q) for q in range(10)], 17, cap=100)
    assert exc.value.count == 17**5


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_verify_runs_the_oracle_exactly_within_the_cap(k, d):
    # verify_counts runs the oracle on a cell exactly when check_oracle_cap
    # does not raise, and both when n**p is within the cap; caps at and
    # around 2**k, with p on both sides of the cap's bit length
    cap = 2**k + d
    ps = [p for p in (3, 5, 7, 11, 13) if abs(p - cap.bit_length()) <= 4]
    for record in verify_counts(ps, [2], range(2, 9), cap=cap):
        within = record.n**record.p <= cap
        assert (record.computed_oracle is not None) == within, (record.n, record.p, cap)
        if within:
            colorings.check_oracle_cap(record.n, record.p, cap)
        else:
            with pytest.raises(CapExceededError):
                colorings.check_oracle_cap(record.n, record.p, cap)


def built_state_maps(monkeypatch) -> list[tuple[int, int]]:
    """Record (strands, modulus) of every state map built from now on."""
    built = []
    build = colorings._factor_map

    def recording(factor, strands, table):
        built.append((strands, len(table)))
        return build(factor, strands, table)

    monkeypatch.setattr(colorings, "_factor_map", recording)
    return built


def test_verify_builds_one_state_map_per_oracle_modulus(monkeypatch):
    built = built_state_maps(monkeypatch)
    verify_counts([7], range(15), range(2, 8), cap=10**6)
    # R_6 counts as R_2 times R_3, whose maps are built for n = 2 and 3
    assert sorted(built) == [(7, n) for n in (2, 3, 4, 5, 7)]


def test_only_periodic_words_build_a_state_map(monkeypatch):
    built = built_state_maps(monkeypatch)
    for word in (BraidWord(3, (1, -2, 1)), torus_braid(5, 1), torus_braid(5, 0)):
        oracle_cells([word], 5)
    assert built == []
    oracle_cells([FIGURE_EIGHT], 5)  # (s1 s2^-1)^2
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
    assert colorings._windows(long_word.letters, 9, 5, 5**8)[0] > 2
    cells = [
        (BraidWord(9, (1, 2, 3, 4, 5, 6, 7, 8, -1)), 25),
        (long_word, linear_count(long_word, 5)),
    ]
    for word, expected in cells:
        tracemalloc.start()
        try:
            count = colorings.oracle_counts(word, 5, [1])[1]
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
    assert colorings._windows(word.letters, 3, 100, 100**2)[0] == 2
    expected = linear_count(word, 100)
    counts = []
    peak = peak_bytes(lambda: counts.append(colorings.oracle_counts(word, 100, [1])[1]))
    assert counts == [expected]
    assert peak < 6 * 100**3


def test_linear_cap_raises_naming_count():
    with pytest.raises(CapExceededError) as exc:
        enumerate_colorings_linear(torus_braid(5, 0), 9, cap=100)
    assert exc.value.count == 9**5


def test_linear_cap_is_checked_before_the_quandle_is_built(monkeypatch):
    # R_n is an n-by-n table: at n = 10**20 building it would never end.
    # The linear route builds none at any n, under the cap or over it
    def refuse(n):
        raise AssertionError(f"R_{n}'s table built by the linear route")

    monkeypatch.setattr(colorings, "_dihedral_table", refuse)
    with pytest.raises(CapExceededError) as exc:
        enumerate_colorings_linear(TorusLinkSpec(3, 2), 10**20)
    assert exc.value.count == 10**20
    assert enumerate_colorings_linear(TorusLinkSpec(3, 2), 9).count == 27


def test_linear_accepts_spec_and_word():
    by_spec = enumerate_colorings_linear(TorusLinkSpec(3, 4), 9)
    by_word = enumerate_colorings_linear(torus_braid(3, 4), 9)
    assert by_spec.count == by_word.count
    assert np.array_equal(by_spec.colorings, by_word.colorings)


def test_linear_colorings_hold_one_int64_per_colour():
    # T(5,10) by R_9: 59049 colorings of 5 strands, 40 bytes of colours and
    # an 8-byte row key each, 2.84 MB measured
    tracemalloc.start()
    try:
        cs = enumerate_colorings_linear(TorusLinkSpec(5, 10), 9)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cs.count == 9**5
    assert held <= 56 * cs.count


def test_coloring_rows_must_span_the_strands():
    word = torus_braid(3, 2)
    assert ColoringSet(word, 3, [(0, 1, 2)]).colorings.shape == (1, 3)
    for bad in ([(0, 1)], [(0, 1, 2, 0)], [0, 1, 2], [(0, 1, 2), (0, 1)]):
        with pytest.raises(ValueError):
            ColoringSet(word, 3, bad)


def test_coloring_set_rejects_unsorted_colorings():
    # rows reversed or repeated, of T(2,3) and of T(3,2) by R_3, are caller
    # input, refused by the set before build_quiver or lattice_form reads them
    for link in (torus_braid(2, 3), TorusLinkSpec(3, 2)):
        colorings = enumerate_colorings_linear(link, 3).colorings
        for bad in (colorings[::-1], np.concatenate((colorings, colorings[-1:]))):
            with pytest.raises(ValueError, match="sorted and distinct"):
                ColoringSet(link, 3, bad)
    # a colour outside 0..2 would make the row keys out of order
    for bad in ([(0, 0), (0, 3)], [(-1, 0), (0, 0)]):
        with pytest.raises(ValueError, match="colours must lie in 0..2"):
            ColoringSet(torus_braid(2, 3), 3, bad)
    keys = ColoringSet(TorusLinkSpec(3, 2), 3, [(0, 0, 0), (1, 2, 0)]).keys
    assert keys.tolist() == [0, 15] and not keys.flags.writeable
    # keys handed in by the caller are checked as the set's own
    with pytest.raises(ValueError, match="sorted and distinct"):
        ColoringSet(TorusLinkSpec(3, 2), 3, [(0, 0, 0), (1, 2, 0)], np.array([15, 0]))
    linear = enumerate_colorings_linear(TorusLinkSpec(3, 2), 9)
    assert np.array_equal(linear.keys, row_keys(linear.colorings, 9))


def test_coloring_set_reads_the_strands_off_the_link(monkeypatch):
    # a torus link's p and a word's strand count, with no factor built or searched
    def no_factor(link):
        raise AssertionError("factor_power called")

    monkeypatch.setattr(braids, "factor_power", no_factor)
    assert ColoringSet(TorusLinkSpec(4, 3), 3, [(0, 0, 0, 0)]).colorings.shape == (1, 4)
    word = BraidWord(5, (1, 2) * 50)
    assert ColoringSet(word, 3, [(1,) * 5]).colorings.shape == (1, 5)
    with pytest.raises(ValueError, match="need 4 colours"):
        ColoringSet(TorusLinkSpec(4, 3), 3, [(0, 0, 0)])


def test_colorings_and_labels_are_read_only():
    cs = enumerate_colorings_linear(TorusLinkSpec(3, 2), 3)
    quiver = build_quiver(cs)
    for array in (cs.colorings, quiver.labels):
        with pytest.raises(ValueError):
            array[0, 0] = 1
