"""Tests for quiver construction, the lattice form, blocks, and comparison."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from blocks_reference import twin_blocks
from braid_reference import torus_braid
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle_reference import coloring_set as reference_set
from quandle_reference import affine_endomorphisms, brute_force_endomorphisms, dihedral
from quiver_reference import build_quiver as reference_build
from quiver_reference import (
    dense,
    from_arrows,
    quiver_form_for_count,
    realize,
    reference_isomorphic,
    runs,
    weight_triples,
)

from quandlequiver import colorings, linalg, quivers
from quandlequiver.braids import BraidWord, TorusLinkSpec
from quandlequiver.colorings import ColoringSet, enumerate_colorings_linear
from quandlequiver.counting import _prime_powers
from quandlequiver.errors import CapExceededError, InternalConsistencyError
from quandlequiver.linalg import row_keys
from quandlequiver.quivers import (
    QuiverForm,
    WeightedQuiver,
    _check_structure,
    build_quiver,
    isomorphic,
    lattice_form,
)


def dihedral_quiver(p, q, n):
    cs = reference_set(torus_braid(p, q), dihedral(n))
    return cs, build_quiver(cs)


def assert_matches(quiver, form, block_of):
    """The quiver is the form's, laid out by block_of, by isomorphic and by
    the explicit comparison with realize(form)."""
    assert isomorphic(quiver, form, block_of) is True
    assert reference_isomorphic(quiver, form, block_of)


def arrows(triples):
    """src, dst, weight columns of (i, j, w) triples."""
    return np.array(triples, dtype=np.int64).reshape(-1, 3).T


def quiver_of(n, triples):
    return from_arrows(n, *arrows(triples))


def relabelled(quiver, seed, block_of):
    """A copy of quiver with its vertices shuffled, and their blocks moved with them."""
    rng = random.Random(seed)
    perm = list(range(quiver.n_vertices))
    rng.shuffle(perm)
    triples = [(perm[i], perm[j], w) for i, j, w in weight_triples(quiver)]
    moved = np.empty(quiver.n_vertices, dtype=np.int64)
    moved[perm] = block_of
    return quiver_of(quiver.n_vertices, triples), moved


def laid_out(form):
    """The block of each vertex of realize(form), its blocks laid end to end."""
    return np.repeat(np.arange(form.sizes.size), form.sizes)


def shuffled_shape(form, seed):
    """realize(form) with its vertices shuffled, and the block of each."""
    return relabelled(realize(form), seed, laid_out(form))


def block_lists(block_of):
    """Each block's vertices as a sorted list, block by block."""
    return [np.flatnonzero(block_of == b).tolist() for b in range(block_of.max(initial=-1) + 1)]


def swapped_blocks(block_of, a, b):
    """A copy of block_of with the vertices of blocks a and b, of one size, exchanged."""
    out = np.array(block_of)
    out[block_of == a], out[block_of == b] = b, a
    return out


def edited(quiver, edits):
    """A copy of quiver with dw added to the weight of each (i, j, dw) of edits."""
    weights = {(i, j): w for i, j, w in weight_triples(quiver)}
    for i, j, dw in edits:
        weights[i, j] = weights.get((i, j), 0) + dw
    return quiver_of(quiver.n_vertices, [(i, j, w) for (i, j), w in weights.items()])


def test_weighted_quiver_add_and_validation():
    # duplicates are summed, a zero weight is dropped, rows come out sorted
    w = quiver_of(3, [(2, 0, 1), (0, 1, 2), (1, 1, 0), (0, 1, 3)])
    assert dense(w)[0, 1] == 5
    assert dense(w).sum(axis=1).tolist() == [5, 0, 1]
    assert weight_triples(w) == [(0, 1, 5), (2, 0, 1)]
    assert w.indptr.tolist() == [0, 1, 1, 2]
    assert w == quiver_of(3, [(0, 1, 5), (2, 0, 1)])
    with pytest.raises(ValueError, match="outside"):
        quiver_of(3, [(0, 3, 1)])
    with pytest.raises(ValueError, match="outside"):
        quiver_of(3, [(-1, 0, 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        quiver_of(3, [(0, 1, -1)])
    with pytest.raises(ValueError):
        from_arrows(2, [], [], [], labels=[(0,)])
    with pytest.raises(ValueError):
        from_arrows(2, [], [], [], labels=[(0,), (0, 1)])
    with pytest.raises(ValueError):
        from_arrows(2, [0], [0, 1], [1, 1])
    # the arrays are read-only
    with pytest.raises(ValueError):
        w.weight[0] = 1


def test_unknot_quiver_is_complete_with_uniform_weight():
    cs, quiver = dihedral_quiver(5, 1, 4)
    assert quiver.n_vertices == 4
    assert weight_triples(quiver) == [(i, j, 4) for i in range(4) for j in range(4)]


def test_torus_5_2_quiver_structure():
    cs, quiver = dihedral_quiver(5, 2, 5)
    n_endos = 25
    trivial = set(cs.trivial_indices)
    assert quiver.n_vertices == 25
    assert len(trivial) == 5
    weight = dense(quiver)
    for i in range(25):
        assert weight[i].sum() == n_endos
        assert weight[i, i] >= 1
    for i in range(25):
        for j in range(25):
            if i in trivial and j in trivial:
                assert weight[i, j] == 5
            elif i in trivial and j not in trivial:
                assert weight[i, j] == 0
            elif i not in trivial and j in trivial:
                assert weight[i, j] == 1


def test_build_quiver_rejects_non_closed_set():
    cases = [
        # a translate of K0 is missing
        ([(0, 0), (0, 1)], "image (1, 1) of coloring (0, 0) under x -> 1*x + 1 mod 3"),
        # (1, 0) is no translate of K0 = {(0, 0)}
        ([(0, 0), (1, 0), (1, 1), (2, 2)], "image (0, 2) of coloring (1, 0) under x -> 1*x + 2 mod 3"),
        # closed under translation, but not under scaling
        (
            [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)],
            "image (0, 2) of coloring (0, 1) under x -> 2*x + 0 mod 3",
        ),
    ]
    for rows, named in cases:
        bad = ColoringSet(torus_braid(2, 1), 3, rows)
        with pytest.raises(ValueError, match=re.escape(named) + " is not itself"):
            build_quiver(bad)


def test_build_quiver_of_no_colorings_and_of_r1():
    empty = ColoringSet(TorusLinkSpec(3, 2), 4, np.zeros((0, 3)))
    quiver = build_quiver(empty)
    assert quiver.n_vertices == 0 and quiver.dst.size == 0 and quiver.indptr.tolist() == [0]
    one = ColoringSet(TorusLinkSpec(3, 2), 1, [(0, 0, 0)])
    assert weight_triples(build_quiver(one)) == [(0, 0, 1)]


def test_build_quiver_keys_past_int64():
    # 31^13 > 2^63: the row keys are Python ints
    cs = enumerate_colorings_linear(TorusLinkSpec(13, 1), 31)
    quiver = build_quiver(cs)
    assert quiver == reference_build(cs, affine_endomorphisms(31))
    assert weight_triples(quiver) == [(i, j, 31) for i in range(31) for j in range(31)]


@pytest.mark.parametrize(
    "p,q,n,brute",
    [
        # the build's two lookups, of the translates of K0 among all the
        # colorings and of the scalings within K0, on key spaces n^p from
        # under 4N to far above N; against the reference built from the
        # exhaustive search of End(R_n) as well as from the affine maps
        (3, 6, 7, False),
        (3, 6, 7, True),
        (7, 14, 3, False),
        (7, 14, 3, True),
        (7, 2, 14, False),
        (5, 5, 30, False),
        (7, 2, 7, True),
    ],
)
def test_build_quiver_matches_reference_on_both_lookups(p, q, n, brute):
    cs = enumerate_colorings_linear(TorusLinkSpec(p, q), n)
    endos = brute_force_endomorphisms(dihedral(n)) if brute else affine_endomorphisms(n)
    assert build_quiver(cs) == reference_build(cs, endos)


def grid_coloring_sets():
    """Torus links p = 2..7, q = 0..2p, and 20 seeded signed words on 2-4
    strands, by R_n for n = 2..12, each with at most 2 * 10^4 colorings."""
    rng = random.Random(2026)
    links = [TorusLinkSpec(p, q) for p in range(2, 8) for q in range(2 * p + 1)]
    for _ in range(20):
        strands = rng.randint(2, 4)
        letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 10))]
        links.append(BraidWord(strands, tuple(letters)))
    for link in links:
        for n in range(2, 13):
            try:
                yield enumerate_colorings_linear(link, n, cap=2 * 10**4)
            except CapExceededError:
                pass


def test_build_quiver_matches_reference_on_a_grid():
    cells = 0
    for cs in grid_coloring_sets():
        expected = reference_build(cs, affine_endomorphisms(cs.n))
        assert build_quiver(cs) == expected, (cs.link, cs.n)
        cells += 1
    assert cells > 700


@pytest.mark.parametrize(
    "p,q,n,drop", [(3, 6, 7, 100), (7, 2, 14, 50), (13, 1, 31, 5), (3, 6, 7, 20)]
)
def test_build_quiver_names_a_real_missing_image(p, q, n, drop):
    # the last drops a row of K0, N/n = 49 rows here, which only the
    # scalings of K0 or a row left without a class can find
    full = enumerate_colorings_linear(TorusLinkSpec(p, q), n)
    kept = np.delete(full.colorings, drop, axis=0)
    cs = ColoringSet(full.link, full.n, kept)
    with pytest.raises(ValueError) as raised:
        build_quiver(cs)
    named = re.fullmatch(
        rf"image \((.*)\) of coloring \((.*)\) under x -> (\d+)\*x \+ (\d+) mod {n} "
        r"is not itself a coloring",
        str(raised.value),
    )
    image, coloring = (np.array(list(map(int, g.split(",")))) for g in named.group(1, 2))
    a, b = map(int, named.group(3, 4))
    members = set(map(tuple, kept.tolist()))
    assert tuple(coloring) in members
    assert tuple(image) not in members
    assert np.array_equal(image, (a * coloring + b) % n)


def outcome(build, coloring_set, *endos):
    try:
        return build(coloring_set, *endos)
    except ValueError:
        return "not closed"


@st.composite
def coloring_sets(draw):
    """All colorings by R_n, n <= 6, of a torus link or of a signed braid word, at most 400."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        p = draw(st.integers(2, 5))
        link = TorusLinkSpec(p, draw(st.integers(0, 2 * p)))
    else:
        strands = draw(st.integers(2, 4))
        letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
        link = BraidWord(strands, tuple(draw(st.lists(letter, max_size=8))))
    try:
        return enumerate_colorings_linear(link, n, cap=400)
    except CapExceededError:
        assume(False)


@settings(max_examples=150)
@given(coloring_sets(), st.booleans(), st.data())
def test_build_quiver_matches_reference(coloring_set, drop, data):
    n = coloring_set.n
    if drop:
        colorings = list(coloring_set.colorings)
        del colorings[data.draw(st.integers(0, len(colorings) - 1))]
        coloring_set = ColoringSet(coloring_set.link, n, colorings)
    built = outcome(build_quiver, coloring_set)
    assert built == outcome(reference_build, coloring_set, affine_endomorphisms(n))
    if drop:
        # the translations alone carry some coloring onto the dropped one
        assert built == "not closed"
    else:
        # the quiver whose twin classes the colorings' lattice form reads
        form, block_of = lattice_form(coloring_set)
        assert block_lists(block_of) == twin_blocks(built)
        assert isomorphic(built, form, block_of) is True


def test_check_structure_enforces_each_law():
    cs, quiver = dihedral_quiver(5, 2, 5)
    trivial = cs.trivial_indices
    nontrivial = np.setdiff1d(np.arange(cs.count), trivial)
    t, u, v = trivial[0], trivial[1], nontrivial[0]

    def broken(edits):
        return _check_structure(edited(quiver, edits), cs)

    broken([])
    with pytest.raises(InternalConsistencyError, match="sums to"):
        broken([(v, v, 1)])
    with pytest.raises(InternalConsistencyError, match="trivial block weight"):
        broken([(t, u, -1), (t, t, 1)])
    # the row sum holds, and the arrow leaving the trivial block is found
    # before the weights inside it
    with pytest.raises(InternalConsistencyError, match="from trivial coloring"):
        broken([(t, t, -1), (t, v, 1)])
    # the built quiver stores one row per translation class; v alone reads
    # a new stored row, one arrow of weight 1, and the error names v
    stored = quiver.indptr.size - 1
    assert stored == cs.count // 5 and v != stored
    row = quiver.row.copy()
    row[v] = stored
    indptr = np.append(quiver.indptr, quiver.indptr[-1] + 1)
    one_short = WeightedQuiver(
        cs.count, row, indptr, np.append(quiver.dst, v), np.append(quiver.weight, 1), quiver.labels
    )
    with pytest.raises(InternalConsistencyError, match=f"row {v} sums to 1,"):
        _check_structure(one_short, cs)
    # t alone reads a new stored row of five arrows of weight 5 to trivial
    # colorings, with t repeated and u missing: only the targets break a law
    row = quiver.row.copy()
    row[t] = stored
    targets = np.sort(np.where(trivial == u, t, trivial))
    indptr = np.append(quiver.indptr, quiver.indptr[-1] + 5)
    dst, weight = np.append(quiver.dst, targets), np.append(quiver.weight, [5] * 5)
    repeats = WeightedQuiver(cs.count, row, indptr, dst, weight, quiver.labels)
    with pytest.raises(InternalConsistencyError, match=rf"at \({t}, {t}\) is 10, expected 5$"):
        _check_structure(repeats, cs)


def test_build_quiver_peak_memory():
    # T(5,10) by R_7: N = 16,807 and E = 823,249.  The build stores one row
    # per translation class, E/n arrows, and at its peak holds the N-length
    # class index and lookups beside them: 7.4 bytes per arrow measured,
    # where spreading each class's row over its n vertices took 30.8
    cs = enumerate_colorings_linear(TorusLinkSpec(5, 10), 7)
    tracemalloc.start()
    try:
        quiver = build_quiver(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrows = quiver.arrows()[0].size
    assert arrows == 823_249 == 7 * quiver.dst.size
    assert peak < 10 * arrows


@pytest.mark.parametrize("q,count", [(1, 3000), (2, 15_000)])
def test_quiver_path_holds_nothing_n_by_n(q, count):
    # T(5,1) and T(5,2) by R_3000: N = 3000 and 15,000, with n^2 = 9 * 10^6
    # arrows among the trivial colorings alone; the build, the form and the
    # comparison read each stored row of them once, with no n x n block
    cs = enumerate_colorings_linear(TorusLinkSpec(5, q), 3000)
    tracemalloc.start()
    try:
        quiver = build_quiver(cs)
        form, block_of = lattice_form(cs)
        matched = isomorphic(quiver, form, block_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matched is True and cs.count == count
    assert peak < 16 * 2**20


def test_lattice_form_reads_the_quotient_the_build_read(monkeypatch):
    # the quotient is read once per coloring set: after the build, the form
    # looks up no row keys, and it is the form of a fresh set
    calls = []

    def counted(rows, m):
        calls.append(rows.shape)
        return row_keys(rows, m)

    cells = 0
    for cs in grid_coloring_sets():
        build_quiver(cs)
        with monkeypatch.context() as patch:
            for module in (colorings, linalg, quivers):
                patch.setattr(module, "row_keys", counted, raising=False)
            form, block_of = lattice_form(cs)
        fresh = lattice_form(ColoringSet(cs.link, cs.n, cs.colorings))
        assert form == fresh[0] and np.array_equal(block_of, fresh[1]), (cs.link, cs.n)
        cells += 1
    assert calls == [] and cells > 700


def test_form_constructors_and_validation():
    form = QuiverForm([5], [5])
    assert form.cross.shape == (0, 3)
    assert form.n_vertices == 5
    joined = QuiverForm([6] * 16, [6] + [3] * 15, [(b, 0, 3) for b in range(1, 16)])
    assert joined.n_vertices == 96
    assert joined.sizes.size == 16
    # the columns are read-only int64 copies of what was given
    sizes = np.array([6] * 16)
    assert QuiverForm(sizes, joined.weights, joined.cross) == joined
    sizes[0] = 7
    assert joined.sizes[0] == 6
    for column in (joined.sizes, joined.weights, joined.cross):
        assert column.dtype == np.int64
        with pytest.raises(ValueError):
            column[0] = 1
    with pytest.raises(AttributeError):
        joined.sizes = sizes
    # the empty form; equal columns compare equal, and unequal ones do not
    empty = QuiverForm()
    assert (empty.sizes.shape, empty.weights.shape, empty.cross.shape) == ((0,), (0,), (0, 3))
    assert empty.n_vertices == 0
    assert empty == QuiverForm([], [], np.zeros((0, 3), dtype=np.int64))
    assert joined == QuiverForm(joined.sizes.tolist(), joined.weights.tolist(), joined.cross.tolist())
    assert joined != QuiverForm(joined.sizes, joined.weights)
    assert form != QuiverForm([5], [4]) and form != empty
    bad = [
        ([2, 1], [1]),  # sizes and weights of different lengths
        ([[2, 1]], [[1, 1]]),  # columns that are not 1-D
        ([2, 1], [1, 1], [(1, 0)]),  # cross not of shape (E, 3)
        ([2, 1], [1, 1], [1, 0, 1]),
        ([2, 1], [1, 1], [(2, 0, 1)]),  # a block out of range
        ([2, 1], [1, 1], [(0, -1, 1)]),
        ([2, 1], [1, 1], [(0, 0, 1)]),  # a block to itself
        ([2, 1], [1, 1], [(1, 0, 0)]),  # cross weight 0
        ([2, 1], [1, 1], [(1, 0, -1)]),
        ([0, 1], [1, 1]),  # size 0
        ([2, 1], [1, 0]),  # weight 0
        ([2, 1], [-1, 1]),
    ]
    for columns in bad:
        with pytest.raises(ValueError):
            QuiverForm(*columns)


def test_realize_join_explicit():
    quiver = realize(QuiverForm([2, 1], [3, 1], [(1, 0, 5)]))
    assert quiver.n_vertices == 3
    assert sorted(weight_triples(quiver)) == [
        (0, 0, 3),
        (0, 1, 3),
        (1, 0, 3),
        (1, 1, 3),
        (2, 0, 5),
        (2, 1, 5),
        (2, 2, 1),
    ]


def test_realize_disjoint_copies_have_no_cross_edges():
    quiver = realize(QuiverForm([3] * 4, [2] * 4))
    assert quiver.n_vertices == 12
    for i, j, w in weight_triples(quiver):
        assert i // 3 == j // 3
        assert w == 2


@pytest.mark.parametrize(
    "p,n,count,families,cross",
    [
        (5, 4, 4, ((1, 4, 4),), ()),
        (5, 5, 25, ((1, 5, 5), (1, 20, 1)), ((1, 0, 1),)),
        (7, 14, 98, ((1, 14, 14), (1, 84, 2)), ((1, 0, 2),)),
        (5, 6, 96, ((1, 6, 6), (15, 6, 3)), ((1, 0, 3),)),
        (5, 3, 243, ((1, 3, 3), (40, 6, 1)), ((1, 0, 1),)),
        (3, 2, 8, ((1, 2, 2), (3, 2, 1)), ((1, 0, 1),)),
        (2, 3, 9, ((1, 3, 3), (1, 6, 1)), ((1, 0, 1),)),
    ],
)
def test_quiver_form_for_count_dispatch(p, n, count, families, cross):
    # the paper's shapes, as (copies, size, weight) runs of blocks; its cross
    # entry (1, 0, d) is weight d from each block of the second run
    form = quiver_form_for_count(p, n, count)
    assert runs(form) == families
    assert form.cross.tolist() == [[b, 0, d] for _, _, d in cross for b in range(1, form.sizes.size)]
    assert form.n_vertices == count


def test_quiver_form_for_count_errors():
    with pytest.raises(ValueError):
        quiver_form_for_count(4, 3, 3)
    with pytest.raises(ValueError):
        quiver_form_for_count(5, 4, 1024)  # n^p with composite n
    with pytest.raises(ValueError):
        quiver_form_for_count(5, 3, 7)


def test_isomorphic_self():
    form = quiver_form_for_count(5, 5, 25)
    assert_matches(realize(form), form, laid_out(form))


def test_isomorphic_under_permutation():
    form = quiver_form_for_count(5, 6, 96)
    shuffled, block_of = shuffled_shape(form, seed=7)
    assert_matches(shuffled, form, block_of)


def test_isomorphic_detects_weight_change():
    form = quiver_form_for_count(5, 5, 25)
    shuffled, block_of = shuffled_shape(form, seed=3)
    assert isomorphic(edited(shuffled, [(17, 4, 1)]), form, block_of) is False
    # one block's weight altered in the form instead
    lighter = QuiverForm([5, 20], [4, 1], form.cross)
    assert isomorphic(shuffled, lighter, block_of) is False
    # the same blocks without the join's cross arrows
    assert isomorphic(realize(QuiverForm(form.sizes, form.weights)), form, laid_out(form)) is False
    # the same blocks and arrows, with cross weight 2 instead of 1
    heavier = QuiverForm([5, 20], [5, 1], [(1, 0, 2)])
    assert isomorphic(realize(heavier), form, laid_out(form)) is False


def test_isomorphic_distinguishes_uniform_weights():
    def complete(size, weight):
        return QuiverForm([size], [weight])

    k2, k3 = realize(complete(2, 1)), realize(complete(3, 1))
    joined = QuiverForm([1, 2], [1, 1], [(1, 0, 1)])
    # every row two or three arrows of weight 1, to distinct vertices, as in
    # K2 or K3 of weight 1, on three or four vertices
    cycle = quiver_of(3, [(i, j, 1) for i in range(3) for j in (i, (i + 1) % 3)])
    three_of_four = quiver_of(4, [(i, j, 1) for i in range(4) for j in range(4) if j != (i + 1) % 4])
    cases = [
        (k2, complete(2, 1), [0, 0], True),
        (k2, complete(2, 2), [0, 0], False),
        # a form on another number of vertices
        (k2, complete(3, 1), [0, 0], False),
        (k3, complete(2, 1), [0, 0], False),
        (k3, complete(3, 1), [0, 0], False),
        (cycle, complete(2, 1), [0, 0, 0], False),
        # labels of the wrong length or shape
        (k2, complete(2, 1), [0], False),
        (k2, complete(2, 1), [0, 0, 0], False),
        (k2, complete(2, 1), [[0, 0]], False),
        # labels outside the form's blocks, negative or past them
        (k2, complete(2, 1), [-1, 0], False),
        (k2, complete(2, 1), [0, 1], False),
        (k2, complete(2, 1), [0, 2**40], False),
        # labels in range whose counts are not the form's sizes
        (realize(joined), joined, [0, 1, 1], True),
        (realize(joined), joined, [1, 0, 0], False),
        (realize(joined), joined, [0, 0, 1], False),
        (realize(joined), joined, [1, 1, 1], False),
        (realize(joined), joined, [0, 0, 0], False),
        (three_of_four, QuiverForm([1, 3], [1, 1]), [1, 1, 1, 1], False),
    ]
    for quiver, form, block_of, expected in cases:
        assert isomorphic(quiver, form, block_of) is expected, (quiver, form, block_of)
        assert reference_isomorphic(quiver, form, block_of) is expected


def test_isomorphic_symmetry():
    # a quiver and its relabelled copy each match one form under their own
    # blocks, and neither under the other's
    form = quiver_form_for_count(5, 5, 25)
    a, a_blocks = realize(form), laid_out(form)
    b, b_blocks = shuffled_shape(form, seed=9)
    assert_matches(a, form, a_blocks)
    assert_matches(b, form, b_blocks)
    assert isomorphic(a, form, b_blocks) is False
    assert isomorphic(b, form, a_blocks) is False


def test_isomorphic_large_relabelled_shape():
    # N = 3125: one block K5(w5) joined from 156 blocks K20(w1)
    form = quiver_form_for_count(5, 5, 3125)
    shuffled, block_of = shuffled_shape(form, seed=11)
    assert_matches(shuffled, form, block_of)
    i, j, w = weight_triples(shuffled)[1000]
    assert isomorphic(edited(shuffled, [(i, j, 1)]), form, block_of) is False


def test_isomorphic_accepts_forms_with_equal_family_weights():
    form = QuiverForm([2, 3, 3], [1, 1, 1], [(1, 0, 1)])
    shuffled, block_of = shuffled_shape(form, seed=5)
    assert_matches(shuffled, form, block_of)


def test_isomorphic_refutes_swapped_blocks_of_one_size():
    # A = Z_6^2: the order-2 subgroups <(3, 0)> and <(0, 3)> are blocks of
    # one size and weight, but each lies in different order-6 subgroups
    cs, quiver = dihedral_quiver(3, 6, 6)
    form, block_of = lattice_form(cs)
    assert isomorphic(quiver, form, block_of) is True
    halves = np.flatnonzero((form.sizes == 6) & (form.weights == 3)).tolist()
    assert len(halves) == 3
    for a, b in ((a, b) for a in halves for b in halves if a < b):
        assert isomorphic(quiver, form, swapped_blocks(block_of, a, b)) is False
    # one arrow's weight altered
    i, j, w = weight_triples(quiver)[0]
    assert isomorphic(edited(quiver, [(i, j, 1)]), form, block_of) is False


def test_isomorphic_checks_a_shared_row_once_per_block_reading_it():
    # vertices 0 and 1 both read stored row 0, a loop at vertex 0 of weight
    # 3; read as a row of block 1, its arrow joins block 1 to block 0
    row, indptr, dst, weight = (np.array(a, dtype=np.int64) for a in ([0, 0], [0, 1], [0], [3]))
    quiver = WeightedQuiver(2, row, indptr, dst, weight, None)
    form = QuiverForm([1, 1], [3, 3])
    assert reference_isomorphic(quiver, form, [0, 1]) is False
    assert isomorphic(quiver, form, [0, 1]) is False
    assert isomorphic(from_arrows(2, [0, 1], [0, 1], [3, 3]), form, [0, 1]) is True


@st.composite
def small_forms(draw):
    """1-5 blocks of 1-4 vertices and weight 1-3, and up to 6 cross entries
    of weight 1-3, a pair of blocks possibly repeated."""
    k = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    weights = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    entry = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(1, 3))
    cross = draw(st.lists(entry.filter(lambda e: e[0] != e[1]), max_size=6)) if k > 1 else []
    return QuiverForm(sizes, weights, cross)


@settings(max_examples=300)
@given(
    small_forms(),
    st.integers(0, 2**16),
    st.sampled_from(["none", "weight", "outside", "short", "swap"]),
    st.data(),
)
def test_isomorphic_equals_reference(form, seed, change, data):
    quiver, block_of = shuffled_shape(form, seed)
    triples = weight_triples(quiver)
    i, j, w = data.draw(st.sampled_from(triples))
    if change == "weight":  # one unit of weight moved to another arrow of the row
        others = [t for s, t, _ in triples if s == i and t != j]
        assume(others)
        quiver = edited(quiver, [(i, j, -1), (i, data.draw(st.sampled_from(others)), 1)])
    elif change == "outside":  # an arrow moved into a block its block does not send to
        reached = {block_of[t] for s, t, _ in triples if s == i}
        outside = [v for v in range(quiver.n_vertices) if block_of[v] not in reached]
        assume(outside)
        quiver = edited(quiver, [(i, j, -w), (i, data.draw(st.sampled_from(outside)), w)])
    elif change == "short":  # a row one arrow short
        quiver = edited(quiver, [(i, j, -w)])
    elif change == "swap":  # two blocks of one size exchanged
        sizes = form.sizes.tolist()
        same = [
            (a, b)
            for a in range(len(sizes))
            for b in range(a + 1, len(sizes))
            if sizes[a] == sizes[b]
        ]
        assume(same)
        block_of = swapped_blocks(block_of, *data.draw(st.sampled_from(same)))
    expected = reference_isomorphic(quiver, form, block_of)
    assert isomorphic(quiver, form, block_of) is expected
    if change == "none":
        assert expected
    elif change != "swap":
        assert not expected


def test_isomorphic_sums_repeated_cross_entries():
    # two entries from block 1 to block 0 carry their sum, as in realize
    form = QuiverForm([2, 3], [2, 1], [(1, 0, 1), (1, 0, 2)])
    shuffled, block_of = shuffled_shape(form, seed=4)
    assert_matches(shuffled, form, block_of)
    # each entry on its own is one weight short of the quiver
    for cross in (((1, 0, 1),), ((1, 0, 2),), ((1, 0, 3),)):
        single = QuiverForm(form.sizes, form.weights, cross)
        expected = reference_isomorphic(shuffled, single, block_of)
        assert isomorphic(shuffled, single, block_of) is expected
        assert expected == (cross == ((1, 0, 3),))


def test_built_quiver_matches_predicted_form():
    cs, quiver = dihedral_quiver(5, 2, 5)
    form, block_of = lattice_form(cs)
    assert form == quiver_form_for_count(5, 5, 25)
    assert_matches(quiver, form, block_of)


def test_lattice_form_matches_the_papers_shapes():
    # every torus cell with p in {2, 3, 5, 7}, q <= 2p, n <= 12 and at most
    # 3000 colorings whose count the paper's table answers
    answered = 0
    for p in (2, 3, 5, 7):
        for q in range(2 * p + 1):
            for n in range(2, 13):
                try:
                    cs = enumerate_colorings_linear(TorusLinkSpec(p, q), n, cap=3000)
                    paper = quiver_form_for_count(p, n, cs.count)
                except (CapExceededError, ValueError):
                    continue
                form, block_of = lattice_form(cs)
                assert form == paper, (p, q, n)
                assert np.array_equal(np.bincount(block_of), form.sizes)
                answered += 1
    assert answered == 358


@st.composite
def word_coloring_sets(draw):
    """All colorings by R_n, n <= 12, of a signed braid word on 2-4 strands, at most 3000."""
    n = draw(st.integers(2, 12))
    strands = draw(st.integers(2, 4))
    letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    link = BraidWord(strands, tuple(draw(st.lists(letter, max_size=12))))
    try:
        return enumerate_colorings_linear(link, n, cap=3000)
    except CapExceededError:
        assume(False)


@settings(max_examples=80)
@given(word_coloring_sets())
def test_lattice_form_equals_detected_blocks(coloring_set):
    # the blocks are the built quiver's twin classes, and the form carries
    # its arrows exactly when laid out by them: together these pin the form
    n = coloring_set.n
    quiver = build_quiver(coloring_set)
    form, block_of = lattice_form(coloring_set)
    assert block_lists(block_of) == twin_blocks(quiver)
    assert isomorphic(quiver, form, block_of) is True


def form_multisets(link, n):
    """The sorted (size, weight) pairs of the link's lattice_form by R_n and
    its sorted (size_i, size_j, weight) cross rows: the form up to block
    order; None past a cap of 2000 colorings."""
    try:
        form, _ = lattice_form(enumerate_colorings_linear(link, n, cap=2000))
    except CapExceededError:
        return None
    sizes = form.sizes.tolist()
    return (sorted(zip(sizes, form.weights.tolist())),
            sorted((sizes[i], sizes[j], d) for i, j, d in form.cross.tolist()))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.data())
def test_equivalent_braids_have_equal_lattice_forms(strands, data):
    # the coloring quiver is a link invariant, so its form is the same up
    # to block order for a conjugate, both stabilizations and an inserted
    # cancelling pair
    letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    letters = tuple(data.draw(st.lists(letter, min_size=1, max_size=8), label="letters"))
    at = data.draw(st.integers(0, len(letters)), label="at")

    def inserted(*extra):
        return letters[:at] + extra + letters[at:]

    word = BraidWord(strands, letters)
    equivalent = [
        BraidWord(strands, letters[at:] + letters[:at]),
        BraidWord(strands + 1, letters + (strands,)),
        BraidWord(strands + 1, letters + (-strands,)),
        BraidWord(strands, inserted(1, -1)),
    ]
    # one rewrite by a braid relation, s_i s_i+1 s_i = s_i+1 s_i s_i+1, or by
    # far commutation, s_i s_j = s_j s_i for |i - j| >= 2, on strands + 1
    # strands so that s_i+1 exists for every i < strands
    i = data.draw(st.integers(1, strands - 1), label="i")
    sign = data.draw(st.sampled_from((1, -1)), label="sign")
    far = [e * j for j in range(1, strands + 1) if abs(i - j) >= 2 for e in (1, -1)]
    if far and data.draw(st.booleans(), label="far"):
        j = data.draw(st.sampled_from(far), label="j")
        a, b = inserted(sign * i, j), inserted(j, sign * i)
    else:
        a = inserted(sign * i, sign * (i + 1), sign * i)
        b = inserted(sign * (i + 1), sign * i, sign * (i + 1))
    for n in range(2, 8):
        expected = form_multisets(word, n)
        for other in equivalent:
            assert form_multisets(other, n) == expected, (word, other, n)
        rewritten = form_multisets(BraidWord(strands + 1, a), n)
        assert form_multisets(BraidWord(strands + 1, b), n) == rewritten, (a, b, n)


@pytest.mark.parametrize(
    "p,q,n",
    [
        # 17^17 > 2^63: the row keys are Python ints; A = Z_17, one block
        # of the 17 * 16 colorings that generate it
        pytest.param(17, 2, 17, id="keys_past_int64"),
        # A = Z_2^10: 1,024 blocks of two colorings each
        pytest.param(11, 11, 2, id="many_blocks"),
    ],
)
def test_lattice_form_on_large_cells(p, q, n):
    cs = enumerate_colorings_linear(TorusLinkSpec(p, q), n)
    quiver = build_quiver(cs)
    form, block_of = lattice_form(cs)
    assert block_of.dtype == np.int64 and not block_of.flags.writeable
    assert block_lists(block_of) == twin_blocks(quiver)
    assert form == quiver_form_for_count(p, n, cs.count)
    assert isomorphic(quiver, form, block_of) is True


def test_lattice_form_rejects_non_groups():
    word = torus_braid(2, 3)
    # a count that is not a multiple of n; K0 the whole set, with no translates
    for colorings in ([(0, 0), (1, 1)], [(0, 0), (0, 1), (0, 2)]):
        with pytest.raises(ValueError, match="is not itself a coloring"):
            lattice_form(ColoringSet(word, 3, colorings))


# --- a composite R_n as the product of its prime-power parts --------------

KRONECKER_LINKS = [
    TorusLinkSpec(5, 2),
    TorusLinkSpec(3, 6),
    TorusLinkSpec(7, 2),
    TorusLinkSpec(4, 4),
    BraidWord(3, (1, -2, 1, -2)),
    BraidWord(4, (1, 1, 2, -1, 3, 3, -2)),
]


def part_positions(cs, part):
    """Each coloring of `cs` reduced mod part.n, found among `part`'s rows."""
    wanted = row_keys(cs.colorings % part.n, part.n)
    at = np.minimum(np.searchsorted(part.keys, wanted), part.keys.size - 1)
    assert np.array_equal(part.keys[at], wanted)
    return at


def block_matrix(form):
    """The form's blocks-by-blocks weights: each block's own weight on the
    diagonal, the cross rows' weights, summed, off it."""
    out = np.diag(form.weights)
    np.add.at(out, (form.cross[:, 0], form.cross[:, 1]), form.cross[:, 2])
    return out


def kronecker_cells():
    """(colorings by R_n, colorings by each prime power r exactly dividing
    n) over the grid, each with at most 3000 colorings by R_n."""
    for link in KRONECKER_LINKS:
        for n in (6, 10, 12, 15):
            try:
                cs = enumerate_colorings_linear(link, n, cap=3000)
            except CapExceededError:
                continue
            yield cs, [enumerate_colorings_linear(link, r) for r in _prime_powers(n)]


def test_composite_quiver_is_the_kronecker_product_of_its_parts():
    # x -> (x mod r) over the prime powers r exactly dividing n carries R_n
    # onto the product of the R_r, and the affine map (a, b) mod n onto one
    # affine map per part; so an arrow c -> d by R_n weighs the product of
    # the parts' weights of (c mod r) -> (d mod r), and its blocks are the
    # products of the parts' blocks, entry by entry
    cells = 0
    for cs, parts in kronecker_cells():
        # code[v]: coloring v's positions in the parts, as one mixed-radix
        # number; the reduction is a bijection onto the parts' product
        code, block_code = np.zeros(cs.count, dtype=np.int64), np.zeros(cs.count, dtype=np.int64)
        src, dst, weight = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
        sizes, matrix = np.ones(1, dtype=np.int64), np.ones((1, 1), dtype=np.int64)
        for part in parts:
            at = part_positions(cs, part)
            code = code * part.count + at
            s, d, w = build_quiver(part).arrows()
            src, dst = (src[:, None] * part.count + s).ravel(), (dst[:, None] * part.count + d).ravel()
            weight = (weight[:, None] * w).ravel()
            part_form, part_block_of = lattice_form(part)
            block_code = block_code * part_form.sizes.size + part_block_of[at]
            sizes, matrix = np.kron(sizes, part_form.sizes), np.kron(matrix, block_matrix(part_form))
        vertex = np.full(math.prod(part.count for part in parts), -1)
        vertex[code] = np.arange(cs.count)
        assert vertex.size == cs.count and (vertex >= 0).all(), (cs.link, cs.n)
        # the quiver: every arrow a product of the parts' arrows, and no other
        src, dst = vertex[src], vertex[dst]
        order = np.lexsort((dst, src))
        product = (src[order], dst[order], weight[order])
        assert all(map(np.array_equal, build_quiver(cs).arrows(), product)), (cs.link, cs.n)
        # the form: each block by R_n is one product of the parts' blocks,
        # one to one, of the product's size, weight and cross weights
        form, block_of = lattice_form(cs)
        named = np.full(form.sizes.size, -1)
        named[block_of] = block_code
        assert np.array_equal(named[block_of], block_code), (cs.link, cs.n)
        assert np.array_equal(np.sort(named), np.arange(sizes.size)), (cs.link, cs.n)
        assert np.array_equal(form.sizes, sizes[named])
        assert np.array_equal(block_matrix(form), matrix[np.ix_(named, named)]), (cs.link, cs.n)
        cells += 1
    assert cells == 21
