"""Tests for finite quandles, dihedral tables, and endomorphism enumeration."""

import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from quandle_reference import (
    NonAffineEndomorphismWarning,
    audit_affine_completeness,
    dihedral_op,
    first_broken_pair,
    is_involutive,
)
from quandle_reference import verify_quandle_axioms as reference_axioms

from quandlequiver import quandles
from quandlequiver.braids import torus_braid
from quandlequiver.colorings import enumerate_colorings_oracle
from quandlequiver.errors import CapExceededError
from quandlequiver.quandles import (
    DihedralQuandle,
    FiniteQuandle,
    affine_endomorphisms,
    brute_force_endomorphisms,
    verify_quandle_axioms,
)
from quandlequiver.quivers import build_quiver


def alexander_mod5():
    """x * y = 2x - y mod 5: a connected quandle that is not a kei."""
    return FiniteQuandle([[(2 * x - y) % 5 for y in range(5)] for x in range(5)])


def test_dihedral_op_fixtures():
    assert dihedral_op(5, 1, 3) == 0
    assert dihedral_op(7, 4, 4) == 4
    assert dihedral_op(6, 5, 1) == 3


def test_dihedral_op_range_errors():
    with pytest.raises(ValueError):
        dihedral_op(5, 5, 0)
    with pytest.raises(ValueError):
        dihedral_op(5, 0, -1)
    with pytest.raises(ValueError):
        dihedral_op(0, 0, 0)


@pytest.mark.parametrize("n", list(range(1, 51)))
def test_dihedral_axioms_and_kei(n):
    q = DihedralQuandle(n)
    report = verify_quandle_axioms(q)
    assert report.all_pass
    assert is_involutive(q)


def test_dihedral_table_matches_op():
    q = DihedralQuandle(9)
    assert q.table.shape == (9, 9) and q.table.dtype == np.int64
    assert not q.table.flags.writeable and not q.inverse_table.flags.writeable
    for x in range(9):
        for y in range(9):
            assert q.table[x, y] == dihedral_op(9, x, y)
            assert q.inverse_table[q.table[x, y], y] == x


def test_mutated_table_fails_with_witness():
    table = [[dihedral_op(5, x, y) for y in range(5)] for x in range(5)]
    table[2][3] = (table[2][3] + 1) % 5
    report = verify_quandle_axioms(FiniteQuandle(table))
    assert not report.all_pass
    if not report.right_distributive.passed:
        x, y, z = report.right_distributive.witness
        assert table[table[x][y]][z] != table[table[x][z]][table[y][z]]
    if not report.idempotent.passed:
        (x,) = report.idempotent.witness
        assert table[x][x] != x


@pytest.mark.parametrize("triples", [quandles._TRIPLES, 1])
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, m - 1), min_size=m, max_size=m), min_size=m, max_size=m
        )
    )
)
def test_axiom_witnesses_match_loops(monkeypatch, triples, table):
    # triples=1 checks the distributive law one x at a time
    monkeypatch.setattr(quandles, "_TRIPLES", triples)
    q = FiniteQuandle(table)
    assert verify_quandle_axioms(q) == reference_axioms(q)


def test_constant_table_idempotency_witness():
    report = verify_quandle_axioms(FiniteQuandle([[0, 0], [0, 0]]))
    assert not report.idempotent.passed
    assert report.idempotent.witness == (1,)
    assert not report.invertible.passed


def test_non_bijective_column_rejected_on_inverse():
    q = FiniteQuandle([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="right translation by 0 is not a bijection"):
        q.inverse_table
    # column 0 is a permutation, column 1 the first that is not
    q = FiniteQuandle([[0, 1, 1], [1, 1, 0], [2, 0, 2]])
    with pytest.raises(ValueError, match="right translation by 1 is not a bijection"):
        q.inverse_table


def test_alexander_quandle_axioms_not_kei():
    q = alexander_mod5()
    assert verify_quandle_axioms(q).all_pass
    assert not is_involutive(q)
    t, inverse = q.table, q.inverse_table
    for x in range(5):
        for y in range(5):
            assert inverse[t[x, y], y] == x
            assert t[inverse[x, y], y] == x


def affine_coefficients(row, n):
    """(a, b) of the affine map x -> a*x + b whose images are row."""
    return (row[1] - row[0]) % n if n > 1 else 0, row[0]


def test_affine_endomorphisms_count_and_order():
    endos = affine_endomorphisms(5)
    assert endos.shape == (25, 5) and endos.dtype == np.int64
    assert not endos.flags.writeable
    rows = endos.tolist()
    assert rows == sorted(rows)
    coefficients = sorted(affine_coefficients(row, 5) for row in rows)
    assert coefficients == sorted(product(range(5), repeat=2))
    for row in rows:
        a, b = affine_coefficients(row, 5)
        assert row == [(a * x + b) % 5 for x in range(5)]
    const2 = endos[rows.index([2] * 5)]
    assert affine_coefficients(const2, 5) == (0, 2)
    assert const2[3] == 2
    assert const2[[1, 3, 0]].tolist() == [2, 2, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_affine_composition_law(n):
    endos = affine_endomorphisms(n)
    by_affine = {affine_coefficients(row, n): row for row in endos.tolist()}
    assert len(by_affine) == n * n
    for e1 in endos:
        for e2 in endos:
            a1, b1 = affine_coefficients(e1, n)
            a2, b2 = affine_coefficients(e2, n)
            expected = by_affine[((a1 * a2) % n, (a1 * b2 + b1) % n)]
            assert e1[e2].tolist() == expected


@pytest.mark.parametrize("n", list(range(1, 7)))
def test_brute_force_matches_affine_family(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surplus = audit_affine_completeness(n)
    assert surplus == []
    brute = brute_force_endomorphisms(DihedralQuandle(n))
    assert not brute.flags.writeable
    # both families are in lexicographic row order
    assert np.array_equal(brute, affine_endomorphisms(n))


def test_brute_force_cap_error():
    with pytest.raises(CapExceededError) as exc:
        brute_force_endomorphisms(DihedralQuandle(8))
    assert exc.value.count == 8**8
    assert "8^8 = 16777216" in str(exc.value)
    # a count past 30 digits is named by its power alone
    with pytest.raises(CapExceededError) as exc:
        brute_force_endomorphisms(DihedralQuandle(30))
    assert exc.value.count == 30**30
    assert str(exc.value) == "brute-force search space 30^30 exceeds the cap 1000000"


def test_brute_force_on_alexander_quandle():
    q = alexander_mod5()
    endos = brute_force_endomorphisms(q)
    assert endos.shape == (25, 5)
    rows = endos.tolist()
    assert rows == sorted(rows)
    assert [0, 1, 2, 3, 4] in rows
    t = q.table
    for e in endos:
        for x in range(5):
            for y in range(5):
                assert e[t[x, y]] == t[e[x], e[y]]


def trivial_colorings(q):
    """The colorings of the unknot T(2, 1) by q: its m constant pairs."""
    return enumerate_colorings_oracle(torus_braid(2, 1), q)


def test_endomorphism_rejects_non_homomorphism():
    with pytest.raises(ValueError, match=r"not a homomorphism: phi\(0\*1\) != phi\(0\)\*phi\(1\)"):
        build_quiver(trivial_colorings(DihedralQuandle(5)), [[0, 0, 1, 1, 2]])


def test_endomorphism_of_another_quandle_is_rejected():
    # every map is an endomorphism of the trivial quandle x * y = x, but this
    # one is not an endomorphism of R_5, whose colorings it would act on
    trivial = FiniteQuandle([[x] * 5 for x in range(5)])
    assert len(build_quiver(trivial_colorings(trivial), [[0, 0, 1, 1, 2]]).dst) == 5
    with pytest.raises(ValueError, match=r"phi\(.\*.\) != phi\(.\)\*phi\(.\)"):
        build_quiver(trivial_colorings(DihedralQuandle(5)), [[0, 0, 1, 1, 2]])


def first_broken_row(quandle, rows):
    """The first (row, x, y) with phi(x*y) != phi(x)*phi(y), row by row, or None."""
    for k, images in enumerate(rows):
        broken = first_broken_pair(quandle, images)
        if broken is not None:
            return (k, *broken)
    return None


@settings(max_examples=200)
@given(
    st.sampled_from([DihedralQuandle(n) for n in range(1, 8)] + [alexander_mod5()]).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.lists(
                st.one_of(
                    st.sampled_from(brute_force_endomorphisms(q).tolist()),
                    st.lists(st.integers(0, q.size - 1), min_size=q.size, max_size=q.size),
                ),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
@example((DihedralQuandle(8), affine_endomorphisms(8).tolist() * 17 + [[0, 0, 1, 1, 2, 2, 3, 3]]))
def test_endomorphism_check_matches_pairwise_loop(case):
    # the example's broken row 1088 lies past the first batch of
    # 2^16 // 8^2 = 1024 rows checked together
    quandle, rows = case
    broken = first_broken_row(quandle, rows)
    colorings = trivial_colorings(quandle)
    if broken is None:
        quiver = build_quiver(colorings, rows)
        assert quiver.weight.sum() == len(rows) * quandle.size
    else:
        k, x, y = broken
        with pytest.raises(
            ValueError, match=rf"^endomorphism {k}: .* phi\({x}\*{y}\) != phi\({x}\)\*phi\({y}\)$"
        ):
            build_quiver(colorings, rows)


def test_endomorphism_rejects_out_of_range_images():
    colorings = trivial_colorings(DihedralQuandle(3))
    with pytest.raises(ValueError, match="image 5 outside 0..2"):
        build_quiver(colorings, [[0, 1, 2], [0, 1, 5]])
    with pytest.raises(ValueError, match="image -1 outside 0..2"):
        build_quiver(colorings, [[0, -1, 2]])
    for shape in ([0, 1, 2], [[0, 1]], [[[0, 1, 2]]]):
        with pytest.raises(ValueError, match="rows of 3 images"):
            build_quiver(colorings, shape)


def test_endomorphism_equality_by_images():
    # a family is its images: any (k, m) array-like of the same rows builds
    # the same quiver, and no rows build one with no arrows
    colorings = trivial_colorings(DihedralQuandle(4))
    rows = [[0, 1, 2, 3], [0, 3, 2, 1]]
    quiver = build_quiver(colorings, rows)
    assert quiver == build_quiver(colorings, tuple(map(tuple, rows)))
    assert quiver == build_quiver(colorings, np.array(rows, dtype=np.uint8))
    assert build_quiver(colorings, []).dst.size == 0


def test_quandle_table_validation():
    with pytest.raises(ValueError, match="nonempty"):
        FiniteQuandle([])
    with pytest.raises(ValueError):  # ragged
        FiniteQuandle([[0, 1], [0]])
    with pytest.raises(ValueError, match="square"):
        FiniteQuandle([[0, 1]])
    with pytest.raises(ValueError, match="square"):
        FiniteQuandle([[0, 1], [1, 0], [0, 1]])
    with pytest.raises(ValueError, match="entry 2 outside 0..1"):
        FiniteQuandle([[0, 2], [0, 1]])
    with pytest.raises(ValueError, match="entry -1 outside 0..1"):
        FiniteQuandle([[0, 1], [-1, 1]])
    with pytest.raises(ValueError, match="right translation by 1 is not a bijection"):
        FiniteQuandle([[0, 0], [1, 0]]).inverse_table
    with pytest.raises(ValueError):
        DihedralQuandle(0)
    with pytest.raises(ValueError):
        affine_endomorphisms(0)
    q = FiniteQuandle([[0, 1], [1, 0]])
    assert q.table.tolist() == [[0, 1], [1, 0]]
    assert not q.table.flags.writeable
