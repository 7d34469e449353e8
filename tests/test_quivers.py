"""Tests for quiver construction, closed-form shapes, blocks, and comparison."""

import random

import numpy as np
import pytest
from blocks_reference import detect_blocks as reference_blocks
from blocks_reference import twin_blocks
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from quiver_reference import dense
from quiver_reference import build_quiver as reference_build

from quandlequiver import quivers
from quandlequiver.braids import BraidWord, TorusLinkSpec, torus_braid
from quandlequiver.colorings import (
    ColoringSet,
    enumerate_colorings_linear,
    enumerate_colorings_oracle,
)
from quandlequiver.errors import AmbiguousCountError, CapExceededError, InternalConsistencyError
from quandlequiver.quandles import (
    DihedralQuandle,
    affine_endomorphisms,
    brute_force_endomorphisms,
)
from quandlequiver.quivers import (
    BlockFamily,
    QuiverForm,
    WeightedQuiver,
    _block_profiles,
    _check_structure,
    build_quiver,
    detect_blocks,
    isomorphic,
    predict_quiver,
    quiver_form_for_count,
    realize,
)


def dihedral_quiver(p, q, n):
    cs = enumerate_colorings_oracle(torus_braid(p, q), DihedralQuandle(n))
    return cs, build_quiver(cs, affine_endomorphisms(n))


def assert_valid_mapping(quiver, form, mapping):
    """The mapping carries every weighted arrow of quiver onto realize(form), in O(E)."""
    target = realize(form)
    assert sorted(mapping) == list(range(target.n_vertices))
    mapped = sorted((mapping[i], mapping[j], w) for i, j, w in quiver.weight_triples())
    assert mapped == target.weight_triples()


def arrows(triples):
    """src, dst, weight columns of (i, j, w) triples."""
    return np.array(triples, dtype=np.int64).reshape(-1, 3).T


def quiver_of(n, triples):
    return WeightedQuiver.from_arrows(n, *arrows(triples))


def permuted_copy(quiver, seed):
    rng = random.Random(seed)
    perm = list(range(quiver.n_vertices))
    rng.shuffle(perm)
    return quiver_of(quiver.n_vertices, [(perm[i], perm[j], w) for i, j, w in quiver.weight_triples()])


def edited(quiver, edits):
    """A copy of quiver with dw added to the weight of each (i, j, dw) of edits."""
    weights = {(i, j): w for i, j, w in quiver.weight_triples()}
    for i, j, dw in edits:
        weights[i, j] = weights.get((i, j), 0) + dw
    return quiver_of(quiver.n_vertices, [(i, j, w) for (i, j), w in weights.items()])


def test_weighted_quiver_add_and_validation():
    # duplicates are summed, a zero weight is dropped, rows come out sorted
    w = quiver_of(3, [(2, 0, 1), (0, 1, 2), (1, 1, 0), (0, 1, 3)])
    assert dense(w)[0, 1] == 5
    assert dense(w).sum(axis=1).tolist() == [5, 0, 1]
    assert w.weight_triples() == [(0, 1, 5), (2, 0, 1)]
    assert w.indptr.tolist() == [0, 1, 1, 2]
    assert w == quiver_of(3, [(0, 1, 5), (2, 0, 1)])
    with pytest.raises(ValueError, match="outside"):
        quiver_of(3, [(0, 3, 1)])
    with pytest.raises(ValueError, match="outside"):
        quiver_of(3, [(-1, 0, 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        quiver_of(3, [(0, 1, -1)])
    with pytest.raises(ValueError):
        WeightedQuiver.from_arrows(2, [], [], [], labels=[(0,)])
    with pytest.raises(ValueError):
        WeightedQuiver.from_arrows(2, [], [], [], labels=[(0,), (0, 1)])
    with pytest.raises(ValueError):
        WeightedQuiver.from_arrows(2, [0], [0, 1], [1, 1])
    # the arrays are read-only
    with pytest.raises(ValueError):
        w.weight[0] = 1


def test_unknot_quiver_is_complete_with_uniform_weight():
    cs, quiver = dihedral_quiver(5, 1, 4)
    assert quiver.n_vertices == 4
    assert quiver.weight_triples() == [(i, j, 4) for i in range(4) for j in range(4)]


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


def test_build_quiver_identity_only_endos():
    r3 = DihedralQuandle(3)
    cs = enumerate_colorings_oracle(torus_braid(2, 3), r3)
    quiver = build_quiver(cs, [[0, 1, 2]])
    assert quiver.weight_triples() == [(i, i, 1) for i in range(9)]


def test_build_quiver_rejects_non_closed_set():
    r3 = DihedralQuandle(3)
    word = torus_braid(2, 1)
    bad = ColoringSet(word, r3, [(0, 0), (0, 1)])
    with pytest.raises(InternalConsistencyError):
        build_quiver(bad, affine_endomorphisms(3))


def test_build_quiver_rejects_unsorted_colorings():
    r3 = DihedralQuandle(3)
    colorings = enumerate_colorings_oracle(torus_braid(2, 3), r3).colorings
    for bad in (colorings[::-1], np.concatenate((colorings, colorings[-1:]))):
        with pytest.raises(ValueError):
            build_quiver(ColoringSet(torus_braid(2, 3), r3, bad), affine_endomorphisms(3))


def test_build_quiver_keys_past_int64():
    # 31^13 > 2^63: the row keys are Python ints
    cs = enumerate_colorings_linear(TorusLinkSpec(13, 1), 31)
    endos = affine_endomorphisms(31)
    quiver = build_quiver(cs, endos)
    assert quiver == reference_build(cs, endos)
    assert quiver.weight_triples() == [(i, j, 31) for i in range(31) for j in range(31)]


def outcome(build, coloring_set, endos):
    try:
        return build(coloring_set, endos)
    except InternalConsistencyError:
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
@given(coloring_sets(), st.booleans(), st.booleans(), st.booleans(), st.data())
def test_build_quiver_matches_reference(coloring_set, brute, whole_family, drop, data):
    n = coloring_set.quandle.size
    family = brute_force_endomorphisms(coloring_set.quandle) if brute else affine_endomorphisms(n)
    endos = family
    if not whole_family:
        picked = data.draw(st.sets(st.integers(0, len(family) - 1), min_size=1))
        endos = family[sorted(picked)]
    if drop:
        colorings = list(coloring_set.colorings)
        del colorings[data.draw(st.integers(0, len(colorings) - 1))]
        coloring_set = ColoringSet(coloring_set.link, coloring_set.quandle, colorings)
    built = outcome(build_quiver, coloring_set, endos)
    assert built == outcome(reference_build, coloring_set, endos)
    if drop and whole_family:
        # the translations alone carry some coloring onto the dropped one
        assert built == "not closed"
    if built != "not closed":
        assert_blocks_match_reference(built)


def test_check_structure_enforces_each_law():
    cs, quiver = dihedral_quiver(5, 2, 5)
    trivial = cs.trivial_indices
    nontrivial = np.setdiff1d(np.arange(cs.count), trivial)
    t, u, v = trivial[0], trivial[1], nontrivial[0]

    def broken(edits, n_endos=25, base=quiver):
        return _check_structure(edited(base, edits), cs, n_endos)

    broken([])
    with pytest.raises(InternalConsistencyError, match="sums to"):
        broken([(v, v, 1)])
    with pytest.raises(InternalConsistencyError, match="trivial block weight"):
        broken([(t, u, -1), (t, t, 1)])
    # two endomorphisms, so the trivial block law does not apply
    pair = build_quiver(cs, [range(5), [0, 4, 3, 2, 1]])
    broken([], n_endos=2, base=pair)
    with pytest.raises(InternalConsistencyError, match="from trivial coloring"):
        broken([(t, t, -1), (t, v, 1)], n_endos=2, base=pair)


def test_form_constructors_and_validation():
    form = QuiverForm((BlockFamily(1, 5, 5),))
    assert form.cross == ()
    assert form.n_vertices == 5
    assert sum(f.copies for f in form.families) == 1
    joined = QuiverForm((BlockFamily(1, 6, 6), BlockFamily(15, 6, 3)), ((1, 0, 3),))
    assert joined.n_vertices == 96
    assert sum(f.copies for f in joined.families) == 16
    assert BlockFamily(1, 1, 0).weight == 0  # a single vertex without a loop
    for copies, size, weight in ((0, 1, 1), (1, 0, 1), (1, 2, 0), (1, 1, -1)):
        with pytest.raises(ValueError):
            BlockFamily(copies, size, weight)
    for cross in (((0, 0, 1),), ((1, 0, 0),), ((2, 0, 1),), ((0, -1, 1),)):
        with pytest.raises(ValueError):
            QuiverForm((BlockFamily(1, 2, 1), BlockFamily(1, 1, 1)), cross)


def test_realize_join_explicit():
    quiver = realize(QuiverForm((BlockFamily(1, 2, 3), BlockFamily(1, 1, 1)), ((1, 0, 5),)))
    assert quiver.n_vertices == 3
    assert sorted(quiver.weight_triples()) == [
        (0, 0, 3),
        (0, 1, 3),
        (1, 0, 3),
        (1, 1, 3),
        (2, 0, 5),
        (2, 1, 5),
        (2, 2, 1),
    ]


def test_realize_disjoint_copies_have_no_cross_edges():
    quiver = realize(QuiverForm((BlockFamily(4, 3, 2),)))
    assert quiver.n_vertices == 12
    for i, j, w in quiver.weight_triples():
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
    form = quiver_form_for_count(p, n, count)
    assert tuple((f.copies, f.size, f.weight) for f in form.families) == families
    assert form.cross == cross
    assert form.n_vertices == count


def test_quiver_form_for_count_errors():
    with pytest.raises(ValueError):
        quiver_form_for_count(4, 3, 3)
    with pytest.raises(ValueError):
        quiver_form_for_count(5, 4, 1024)  # n^p with composite n
    with pytest.raises(ValueError):
        quiver_form_for_count(5, 3, 7)


def test_predict_quiver():
    assert predict_quiver(5, 7, 4) == QuiverForm((BlockFamily(1, 4, 4),))
    assert predict_quiver(5, 5, 6) == quiver_form_for_count(5, 6, 96)
    with pytest.raises(AmbiguousCountError) as exc:
        predict_quiver(5, 2, 5)
    assert exc.value.candidates == (5, 25)
    with pytest.raises(ValueError):
        predict_quiver(5, 10, 4)  # 4^5 colorings, composite n


def test_isomorphic_self():
    form = quiver_form_for_count(5, 5, 25)
    quiver = realize(form)
    mapping = isomorphic(quiver, form)
    assert_valid_mapping(quiver, form, mapping)


def test_isomorphic_under_permutation():
    form = quiver_form_for_count(5, 6, 96)
    shuffled = permuted_copy(realize(form), seed=7)
    assert_valid_mapping(shuffled, form, isomorphic(shuffled, form))


def test_isomorphic_detects_weight_change():
    form = quiver_form_for_count(5, 5, 25)
    tweaked = edited(permuted_copy(realize(form), seed=3), [(17, 4, 1)])
    assert isomorphic(tweaked, form) is None
    # the same blocks without the join's cross arrows
    assert isomorphic(realize(QuiverForm(form.families)), form) is None
    # the same blocks and arrows, with cross weight 2 instead of 1
    heavier = QuiverForm((BlockFamily(1, 5, 5), BlockFamily(1, 20, 1)), ((1, 0, 2),))
    assert isomorphic(realize(heavier), form) is None


def test_isomorphic_distinguishes_uniform_weights():
    def complete(size, weight):
        return QuiverForm((BlockFamily(1, size, weight),))

    assert isomorphic(realize(complete(2, 1)), complete(2, 2)) is None
    assert isomorphic(realize(complete(2, 1)), complete(3, 1)) is None
    assert isomorphic(realize(complete(3, 1)), complete(2, 1)) is None


def test_isomorphic_symmetry():
    # mappings of a quiver and of its relabelled copy onto one form compose
    # into an isomorphism between the two, in either direction
    form = quiver_form_for_count(5, 5, 25)
    a = realize(form)
    b = permuted_copy(a, seed=9)
    to_a, to_b = isomorphic(a, form), isomorphic(b, form)
    inverse_b = {t: v for v, t in enumerate(to_b)}
    inverse_a = {t: v for v, t in enumerate(to_a)}
    a_to_b = [inverse_b[t] for t in to_a]
    b_to_a = [inverse_a[t] for t in to_b]
    assert sorted((a_to_b[i], a_to_b[j], w) for i, j, w in a.weight_triples()) == b.weight_triples()
    assert sorted((b_to_a[i], b_to_a[j], w) for i, j, w in b.weight_triples()) == a.weight_triples()


def test_isomorphic_large_relabelled_shape():
    # N = 3125: one block K5(w5) joined from 156 blocks K20(w1)
    form = quiver_form_for_count(5, 5, 3125)
    shuffled = permuted_copy(realize(form), seed=11)
    assert_valid_mapping(shuffled, form, isomorphic(shuffled, form))
    i, j, w = shuffled.weight_triples()[1000]
    assert isomorphic(edited(shuffled, [(i, j, 1)]), form) is None


def test_isomorphic_rejects_forms_with_equal_family_weights():
    form = QuiverForm((BlockFamily(1, 2, 1), BlockFamily(2, 3, 1)), ((1, 0, 1),))
    with pytest.raises(ValueError):
        isomorphic(realize(form), form)


def test_built_quiver_matches_predicted_form():
    cs, quiver = dihedral_quiver(5, 2, 5)
    form = quiver_form_for_count(5, 5, 25)
    assert_valid_mapping(quiver, form, isomorphic(quiver, form))


def test_detect_blocks_on_join():
    form, blocks = detect_blocks(realize(quiver_form_for_count(5, 5, 25)))
    assert blocks == [list(range(5)), list(range(5, 25))]
    assert form.families == (BlockFamily(1, 5, 5), BlockFamily(1, 20, 1))
    assert form.cross == ((1, 0, 1),)


def test_detect_blocks_on_built_quiver():
    cs, quiver = dihedral_quiver(5, 5, 6)
    form, blocks = detect_blocks(quiver)
    assert sorted(len(b) for b in blocks) == [6] * 16
    assert all(f.copies == 1 and f.size == 6 for f in form.families)
    assert sorted(f.weight for f in form.families) == [3] * 15 + [6]
    assert len(form.cross) == 15
    assert {d for _, _, d in form.cross} == {3}


def test_detect_blocks_falls_back_to_singletons():
    # no vertex has a loop, so each is a block of its own
    cycle = quiver_of(4, [(i, (i + 1) % 4, 1) for i in range(4)])
    form, blocks = detect_blocks(cycle)
    assert blocks == [[0], [1], [2], [3]]
    assert form.families == (BlockFamily(1, 1, 0),) * 4
    assert form.cross == ((0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1))
    assert realize(form) == cycle


def test_detect_blocks_reads_the_keys_in_one_pass(monkeypatch):
    # one pass numbers the twin keys, one the block profiles, however many
    # rounds colour refinement would take (a long path needs one per vertex)
    calls = []
    original = quivers._byte_classes

    def counted(packed, offsets):
        calls.append(offsets.size)
        return original(packed, offsets)

    monkeypatch.setattr(quivers, "_byte_classes", counted)
    path = quiver_of(40, [(i, i, 1) for i in range(40)] + [(i, i + 1, 1) for i in range(39)])
    for quiver in (path, realize(quiver_form_for_count(5, 6, 96)), quiver_of(0, [])):
        calls.clear()
        detect_blocks(quiver)
        assert len(calls) == 2


@pytest.mark.parametrize(
    "triples",
    [
        [(0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 1), (2, 2, 1)],  # two weights inside {0, 1}
        [(0, 0, 1), (1, 1, 1), (2, 2, 1)],  # {0, 1} is not complete
        [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 2, 1), (2, 2, 1)],  # only 0 reaches {2}
    ],
)
def test_block_profiles_reject_blocks_that_are_not_uniform(triples):
    quiver = quiver_of(3, triples)
    with pytest.raises(InternalConsistencyError):
        _block_profiles(
            quiver.sources(), quiver.dst, quiver.weight, np.array([0, 0, 1]), np.array([2, 1])
        )


def assert_blocks_match_reference(quiver):
    """detect_blocks finds the twin classes, and the old reference's blocks where
    that reference finds any block of two or more vertices."""
    form, blocks = detect_blocks(quiver)
    assert blocks == twin_blocks(quiver)
    # the block-major relabelling of the quiver is realize(form)
    position = {v: k for k, v in enumerate(v for block in blocks for v in block)}
    relabelled = [(position[i], position[j], w) for i, j, w in quiver.weight_triples()]
    assert quiver_of(quiver.n_vertices, relabelled) == realize(form)
    ref_blocks, ref_weights, ref_cross = reference_blocks(quiver)
    if any(len(b) > 1 for b in ref_blocks):
        assert blocks == ref_blocks
        families = tuple(BlockFamily(1, len(b), w) for b, w in zip(ref_blocks, ref_weights))
        assert form.families == families
        assert form.cross == tuple((i, j, d) for (i, j), d in sorted(ref_cross.items()))


def has_shape(p, n, count):
    try:
        quiver_form_for_count(p, n, count)
    except ValueError:
        return False
    return True


# (p, n, count) of every closed-form shape with p <= 5, n <= 9 and at most 250 vertices
SHAPES = sorted(
    {
        (p, n, count)
        for p in (2, 3, 5)
        for n in range(2, 10)
        for count in (n, p * n, 2 ** (p - 1) * n, n**p)
        if count <= 250 and has_shape(p, n, count)
    }
)


@settings(max_examples=60)
@given(st.sampled_from(SHAPES), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_detect_blocks_matches_reference_on_relabelled_shapes(shape, seed, perturb, data):
    quiver = permuted_copy(realize(quiver_form_for_count(*shape)), seed)
    if perturb:
        n = quiver.n_vertices
        quiver = edited(quiver, [(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)), 1)])
    assert_blocks_match_reference(quiver)


def test_detect_blocks_needs_one_weight_into_each_block():
    # blocks {0, 1} and {4, 5} each send weights 1 and 2 into {2, 3}, so no
    # uniform cross weight into {2, 3} exists; 2 and 3 are not twins, since
    # their in-columns differ (weight 1 from 0 into 2, weight 2 into 3), and
    # split, while {0, 1} and {4, 5} stay twins
    inside = [(a, b, w) for block, w in (((0, 1), 3), ((4, 5), 3), ((2, 3), 5))
              for a in block for b in block]
    cross = [(0, 2, 1), (0, 3, 2), (1, 2, 1), (1, 3, 2), (4, 2, 2), (4, 3, 1), (5, 2, 2), (5, 3, 1)]
    quiver = quiver_of(6, inside + cross)
    form, blocks = detect_blocks(quiver)
    assert blocks == [[0, 1], [2], [3], [4, 5]]
    assert_blocks_match_reference(quiver)


@settings(max_examples=200)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.permutations(range(n)), st.integers(1, 2)), max_size=3),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3),
        )
    )
)
# a complete block {0, 1} whose two vertices reach different blocks, {2} and {3}
@example((4, [([0, 1, 2, 3], 1), ([1, 0, 2, 3], 1), ([2, 3, 0, 1], 1)], [(2, 1), (3, 0)]))
def test_detect_blocks_matches_reference_on_sparse_quivers(case):
    # unions of weighted permutations are regular, so refinement leaves
    # classes that blocks only partly cover; a few stray arrows break the regularity
    n, permutations, strays = case
    triples = [(i, perm[i], w) for perm, w in permutations for i in range(n)]
    triples += [(i, j, 1) for i, j in strays]
    assert_blocks_match_reference(quiver_of(n, triples))
