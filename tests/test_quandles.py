"""Tests for finite quandles, dihedral tables, and endomorphism enumeration."""

import warnings
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quandle_reference import (
    NonAffineEndomorphismWarning,
    audit_affine_completeness,
    dihedral_op,
    is_involutive,
)

from quandlequiver.errors import CapExceededError
from quandlequiver.quandles import (
    DihedralQuandle,
    Endomorphism,
    FiniteQuandle,
    affine_endomorphisms,
    brute_force_endomorphisms,
    verify_quandle_axioms,
)


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
    for x in range(9):
        for y in range(9):
            assert q.op(x, y) == (2 * y - x) % 9
            assert q.inv_op(q.op(x, y), y) == x


def test_mutated_table_fails_with_witness():
    table = [[dihedral_op(5, x, y) for y in range(5)] for x in range(5)]
    table[2][3] = (table[2][3] + 1) % 5
    report = verify_quandle_axioms(FiniteQuandle(table))
    assert not report.all_pass
    q = FiniteQuandle(table)
    if not report.right_distributive.passed:
        x, y, z = report.right_distributive.witness
        assert q.op(q.op(x, y), z) != q.op(q.op(x, z), q.op(y, z))
    if not report.idempotent.passed:
        (x,) = report.idempotent.witness
        assert q.op(x, x) != x


def test_constant_table_idempotency_witness():
    report = verify_quandle_axioms(FiniteQuandle([[0, 0], [0, 0]]))
    assert not report.idempotent.passed
    assert report.idempotent.witness == (1,)
    assert not report.invertible.passed


def test_non_bijective_column_rejected_on_inverse():
    q = FiniteQuandle([[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        q.inv_op(0, 0)


def test_alexander_quandle_axioms_not_kei():
    q = alexander_mod5()
    assert verify_quandle_axioms(q).all_pass
    assert not is_involutive(q)
    for x in range(5):
        for y in range(5):
            assert q.inv_op(q.op(x, y), y) == x
            assert q.op(q.inv_op(x, y), y) == x


def test_affine_endomorphisms_count_and_order():
    endos = affine_endomorphisms(5)
    assert len(endos) == 25
    assert [e.affine for e in endos] == sorted(product(range(5), repeat=2))
    const2 = endos[2]
    assert const2.affine == (0, 2)
    assert const2.images == (2, 2, 2, 2, 2)
    assert const2(3) == 2
    assert const2.apply((1, 3, 0)) == (2, 2, 2)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_affine_composition_law(n):
    endos = affine_endomorphisms(n)
    by_affine = {e.affine: e for e in endos}
    for e1 in endos:
        for e2 in endos:
            a1, b1 = e1.affine
            a2, b2 = e2.affine
            composed = tuple(e1(e2(x)) for x in range(n))
            expected = by_affine[((a1 * a2) % n, (a1 * b2 + b1) % n)]
            assert composed == expected.images


@pytest.mark.parametrize("n", list(range(1, 7)))
def test_brute_force_matches_affine_family(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surplus = audit_affine_completeness(n)
    assert surplus == []
    brute = brute_force_endomorphisms(DihedralQuandle(n))
    assert sorted(e.images for e in brute) == sorted(e.images for e in affine_endomorphisms(n))


def test_brute_force_cap_error():
    with pytest.raises(CapExceededError) as exc:
        brute_force_endomorphisms(DihedralQuandle(8))
    assert exc.value.count == 8**8


def test_brute_force_on_alexander_quandle():
    endos = brute_force_endomorphisms(alexander_mod5())
    assert len(endos) == 25
    images = {e.images for e in endos}
    assert (0, 1, 2, 3, 4) in images
    for e in endos:
        q = alexander_mod5()
        for x in range(5):
            for y in range(5):
                assert e(q.op(x, y)) == q.op(e(x), e(y))


def test_endomorphism_rejects_non_homomorphism():
    with pytest.raises(ValueError):
        Endomorphism(DihedralQuandle(5), [0, 0, 1, 1, 2])


def first_broken_pair(quandle, images):
    """The first (x, y) with phi(x*y) != phi(x)*phi(y), pair by pair, or None."""
    t = quandle.table
    for x in range(quandle.size):
        for y in range(quandle.size):
            if images[t[x][y]] != t[images[x]][images[y]]:
                return x, y
    return None


@settings(max_examples=200)
@given(
    st.sampled_from([DihedralQuandle(n) for n in range(1, 8)] + [alexander_mod5()]).flatmap(
        lambda q: st.tuples(st.just(q), st.lists(st.integers(0, q.size - 1), min_size=q.size, max_size=q.size))
    )
)
def test_endomorphism_check_matches_pairwise_loop(case):
    quandle, images = case
    broken = first_broken_pair(quandle, images)
    if broken is None:
        assert Endomorphism(quandle, images).images == tuple(images)
    else:
        x, y = broken
        with pytest.raises(ValueError, match=rf"phi\({x}\*{y}\) != phi\({x}\)\*phi\({y}\)"):
            Endomorphism(quandle, images)


def test_endomorphism_rejects_out_of_range_images():
    with pytest.raises(ValueError):
        Endomorphism(DihedralQuandle(3), [0, 1, 5])


def test_endomorphism_equality_by_images():
    q = DihedralQuandle(4)
    e1 = Endomorphism(q, [0, 1, 2, 3])
    e2 = Endomorphism(q, (0, 1, 2, 3), affine=(1, 0))
    assert e1 == e2
    assert hash(e1) == hash(e2)


def test_quandle_table_validation():
    with pytest.raises(ValueError):
        FiniteQuandle([])
    with pytest.raises(ValueError):
        FiniteQuandle([[0, 1], [0]])
    with pytest.raises(ValueError):
        FiniteQuandle([[0, 2], [0, 1]])
    with pytest.raises(ValueError):
        DihedralQuandle(0)
