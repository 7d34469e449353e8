"""Acceptance gate: the seven headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
criterion is also an ordinary assertion, so a plain pytest run enforces
all of them.
"""

import time
from functools import lru_cache

import numpy as np

from braid_reference import torus_braid
from oracle_reference import coloring_set as reference_set
from quandle_reference import (
    affine_endomorphisms,
    audit_affine_completeness,
    dihedral,
    is_involutive,
    verify_quandle_axioms,
)
from quiver_reference import dense, quiver_form_for_count, reference_isomorphic, runs

from quandlequiver.braids import BraidWord
from quandlequiver.colorings import enumerate_colorings_linear, oracle_counts
from quandlequiver.counting import (
    CASE_AMBIGUOUS,
    STATUS_AMBIGUOUS_RESOLVED,
    STATUS_MISMATCH,
    predict_count,
    verify_counts,
)
from quandlequiver.quivers import build_quiver, isomorphic, lattice_form


def report(num, detail, elapsed=None, budget=None):
    stamp = ""
    if elapsed is not None:
        stamp = f" in {elapsed:.2f}s"
        if budget is not None:
            stamp += f" (budget {budget:.0f}s)"
    print(f"criterion {num} PASS  {detail}{stamp}")


@lru_cache(maxsize=None)
def torus_quiver(p, q, n):
    cs = enumerate_colorings_linear(torus_braid(p, q), n)
    return cs, build_quiver(cs)


def check_quiver_matches_form(p, q, n, expected_count, families, d):
    """The lattice form is the paper's shape: `families` as (copies, size,
    weight) runs of blocks, every block past the first sending d to it."""
    cs, quiver = torus_quiver(p, q, n)
    assert cs.count == expected_count
    form, block_of = lattice_form(cs)
    assert form == quiver_form_for_count(p, n, cs.count)
    assert runs(form) == families
    assert form.cross.tolist() == [[b, 0, d] for b in range(1, form.sizes.size)]
    assert isomorphic(quiver, form, block_of) is True
    # laid out by its blocks, the quiver is realize(form) arrow for arrow
    assert reference_isomorphic(quiver, form, block_of)
    return form


def test_criterion_1_torus_5_2_quiver():
    start = time.perf_counter()
    check_quiver_matches_form(5, 2, 5, 25, ((1, 5, 5), (1, 20, 1)), 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "T(5,2) over R_5: N=25, quiver = K_5(w5) joined from K_20(w1) d=1", elapsed, 1.0)


def test_criterion_2_torus_5_5_quiver():
    start = time.perf_counter()
    check_quiver_matches_form(5, 5, 6, 96, ((1, 6, 6), (15, 6, 3)), 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(2, "T(5,5) over R_6: N=96, quiver = K_6(w6) joined from 15xK_6(w3) d=3", elapsed, 2.0)


def test_criterion_3_torus_5_10_quiver():
    start = time.perf_counter()
    n, p = 3, 5
    m = (n**p - n) // (n * (n - 1))
    assert m == 40
    form = check_quiver_matches_form(5, 10, 3, 243, ((1, 3, 3), (m, 6, 1)), 1)
    assert form.sizes.size == 1 + m
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "T(5,10) over R_3: N=243, quiver = K_3(w3) joined from 40xK_6(w1) d=1", elapsed, 10.0)


def test_criterion_4_torus_7_2_quiver():
    start = time.perf_counter()
    check_quiver_matches_form(7, 2, 14, 98, ((1, 14, 14), (1, 84, 2)), 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, "T(7,2) over R_14: N=98, quiver = K_14(w14) joined from K_84(w2) d=2", elapsed, 10.0)


def test_criterion_5_counting_sweep():
    start = time.perf_counter()
    cells = 0
    ambiguous_cells = []
    for p in (3, 5, 7):
        report_rows = verify_counts([p], range(0, 2 * p + 1), range(2, 10), cap=10**6)
        for rec in report_rows:
            cells += 1
            assert rec.status != STATUS_MISMATCH, (rec.p, rec.q, rec.n)
            if rec.n**rec.p <= 10**6:
                assert rec.computed_oracle is not None, (rec.p, rec.q, rec.n)
                assert rec.computed_oracle == rec.computed_linear, (rec.p, rec.q, rec.n)
            if rec.prediction.ambiguous:
                assert rec.status == STATUS_AMBIGUOUS_RESOLVED
                assert rec.computed in rec.prediction.candidates
                ambiguous_cells.append(rec)
            else:
                assert rec.computed == rec.prediction.n_colorings, (rec.p, rec.q, rec.n)
    # the ambiguity families are exactly the known ones: n = p with q even,
    # and the p = 7 half-period row where parity and table rules disagree
    for rec in ambiguous_cells:
        residue = rec.q % (2 * rec.p)
        assert (rec.n == rec.p and residue % 2 == 0 and residue != 0) or (
            rec.p == 7 and residue == 7
        )
        if rec.n == rec.p:
            assert rec.computed == rec.p * rec.n
    assert len(ambiguous_cells) > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        5,
        f"sweep of {cells} cells (p in 3,5,7; q to 2p; n to 9): linear = oracle, "
        f"predictions match, {len(ambiguous_cells)} ambiguous cells resolved explicitly",
        elapsed,
        300.0,
    )


def test_criterion_6_property_suite():
    start = time.perf_counter()
    for n in range(1, 51):
        q = dihedral(n)
        assert verify_quandle_axioms(q).all_pass, n
        assert is_involutive(q), n
        endos = affine_endomorphisms(n)
        assert len(endos) == n * n
    for n in range(1, 7):
        assert audit_affine_completeness(n) == []
    for p, q, n in ((5, 2, 5), (5, 5, 6), (5, 10, 3), (7, 2, 14)):
        cs, quiver = torus_quiver(p, q, n)
        n_endos = n * n
        trivial = set(cs.trivial_indices)
        assert len(trivial) == n
        weight = dense(quiver)
        for i in range(quiver.n_vertices):
            assert weight[i].sum() == n_endos, (p, q, n, i)
            assert weight[i, i] >= 1
            for j in trivial:
                if i in trivial:
                    assert weight[i, j] == n
            if i in trivial:
                for j in range(quiver.n_vertices):
                    if j not in trivial:
                        assert weight[i, j] == 0
    elapsed = time.perf_counter() - start
    report(
        6,
        "axioms + kei to n=50, affine endomorphisms to n=50, brute-force audit to n=6, "
        "quiver row-sum and trivial-block laws on criteria 1-4",
        elapsed,
    )


def test_criterion_7_oracle_fixtures_with_negative_crossings():
    trefoil = BraidWord(2, (1, 1, 1))
    fig8 = BraidWord(3, (1, -2, 1, -2))
    t = reference_set(trefoil, dihedral(3))
    f = reference_set(fig8, dihedral(5))
    assert t.count == oracle_counts(trefoil, 3, [1])[1] == 9
    assert f.count == oracle_counts(fig8, 5, [1])[1] == 25
    assert np.array_equal(enumerate_colorings_linear(trefoil, 3).colorings, t.colorings)
    assert np.array_equal(enumerate_colorings_linear(fig8, 5).colorings, f.colorings)
    report(7, "trefoil over R_3 has 9 colorings, figure-eight over R_5 has 25 (oracle, signed words)")
