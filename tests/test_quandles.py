"""Tests for the dihedral tables, the reference quandle checks, and the affine endomorphisms."""

from itertools import product

import numpy as np
import pytest
from oracle_reference import right_inverse
from quandle_reference import (
    CayleyTable,
    affine_endomorphisms,
    brute_force_endomorphisms,
    dihedral,
    dihedral_op,
    is_involutive,
    verify_quandle_axioms,
)

from quandlequiver import colorings
from quandlequiver.braids import TorusLinkSpec
from quandlequiver.colorings import ColoringSet


def alexander_mod5():
    """x * y = 2x - y mod 5: a connected quandle that is not a kei."""
    return CayleyTable([[(2 * x - y) % 5 for y in range(5)] for x in range(5)])


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
    q = dihedral(n)
    report = verify_quandle_axioms(q)
    assert report.all_pass
    assert is_involutive(q)


def test_dihedral_table_matches_op():
    # the oracle's table holds r - 1 in the smallest dtype and is read-only;
    # 2y - x leaves that dtype's range once r passes half of it, so it must
    # not be computed there
    for r, dtype in ((9, np.uint8), (200, np.uint8), (256, np.uint8), (257, np.uint16)):
        table = colorings._dihedral_table(r)
        assert table.shape == (r, r) and table.dtype == dtype, r
        assert not table.flags.writeable
        assert np.array_equal(table, dihedral(r).table), r


def test_mutated_table_fails_with_witness():
    table = [[dihedral_op(5, x, y) for y in range(5)] for x in range(5)]
    table[2][3] = (table[2][3] + 1) % 5
    report = verify_quandle_axioms(CayleyTable(table))
    assert not report.all_pass
    if not report.right_distributive.passed:
        x, y, z = report.right_distributive.witness
        assert table[table[x][y]][z] != table[table[x][z]][table[y][z]]
    if not report.idempotent.passed:
        (x,) = report.idempotent.witness
        assert table[x][x] != x


def test_constant_table_idempotency_witness():
    report = verify_quandle_axioms(CayleyTable([[0, 0], [0, 0]]))
    assert not report.idempotent.passed
    assert report.idempotent.witness == (1,)
    assert not report.invertible.passed


def test_non_bijective_column_rejected_on_inverse():
    with pytest.raises(ValueError, match="right translation by 0 is not a bijection"):
        right_inverse([[0, 0], [0, 1]])
    # column 0 is a permutation, column 1 the first that is not
    with pytest.raises(ValueError, match="right translation by 1 is not a bijection"):
        right_inverse([[0, 1, 1], [1, 1, 0], [2, 0, 2]])


def test_alexander_quandle_axioms_not_kei():
    q = alexander_mod5()
    assert verify_quandle_axioms(q).all_pass
    assert not is_involutive(q)
    t = q.table
    inverse = right_inverse(t)
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


# n = 30: perfbench's compare workload builds T(5,5) by R_30, its largest modulus
@pytest.mark.parametrize("n", list(range(1, 21)) + [30])
def test_brute_force_matches_affine_family(n):
    # the exhaustive search finds no endomorphism of R_n outside the affine
    # family, so the affine maps are the quiver's whole family
    brute = brute_force_endomorphisms(dihedral(n))
    assert not brute.flags.writeable
    # both families are in lexicographic row order
    assert np.array_equal(brute, affine_endomorphisms(n))


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


def test_quandle_table_validation():
    with pytest.raises(ValueError, match="modulus must be at least 1, got 0"):
        ColoringSet(TorusLinkSpec(3, 2), 0, [(0, 0, 0)])
    one = ColoringSet(TorusLinkSpec(3, 2), 5, [(0, 0, 0)])
    assert one.n == 5 and repr(one) == "ColoringSet(1 colorings of a 3-strand closure by R_5)"
    with pytest.raises(ValueError):
        affine_endomorphisms(0)
