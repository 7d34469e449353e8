"""Tests for the closed-form count predictor and the sweep harness.

Ambiguity is load-bearing: cells where published case rules disagree carry
both candidates, and the sweep must resolve them against computation
rather than silently picking one.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quandlequiver.counting import (
    CASE_AMBIGUOUS,
    CASE_FREE,
    CASE_GCD_EVEN,
    CASE_HALF_PERIOD,
    CASE_TRIVIAL_ONLY,
    STATUS_AMBIGUOUS_RESOLVED,
    STATUS_MATCH,
    STATUS_MISMATCH,
    _lcm,
    is_odd_prime,
    predict_count,
    verify_counts,
)


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=40))
def test_lcm_tree_equals_math_lcm(ns):
    assert _lcm(ns) == math.lcm(*ns)


def test_is_odd_prime():
    assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize(
    "p,q,n,case,value",
    [
        (5, 10, 4, CASE_FREE, 1024),
        (5, 0, 3, CASE_FREE, 243),
        (5, 20, 2, CASE_FREE, 32),
        (5, 7, 6, CASE_TRIVIAL_ONLY, 6),
        (5, 3, 9, CASE_TRIVIAL_ONLY, 9),
        (7, 4, 21, CASE_GCD_EVEN, 147),
        (5, 4, 10, CASE_GCD_EVEN, 50),
        (5, 2, 6, CASE_GCD_EVEN, 6),
        (5, 5, 6, CASE_HALF_PERIOD, 96),
        (5, 5, 3, CASE_HALF_PERIOD, 3),
        (7, 7, 9, CASE_HALF_PERIOD, 9),
        (7, 7, 14, CASE_HALF_PERIOD, 896),
        (3, 3, 4, CASE_HALF_PERIOD, 16),
    ],
)
def test_prediction_fixtures(p, q, n, case, value):
    pred = predict_count(p, q, n)
    assert pred.case == case
    assert pred.candidates == (value,)
    assert pred.n_colorings == value
    assert not pred.ambiguous


@pytest.mark.parametrize(
    "p,q,n,candidates",
    [
        (5, 2, 5, (5, 25)),
        (3, 2, 3, (3, 9)),
        (7, 2, 7, (7, 49)),
        (7, 7, 2, (2, 128)),
        (7, 7, 4, (4, 256)),
        (7, 7, 21, (21, 1344)),
    ],
)
def test_ambiguous_cells_carry_both_candidates(p, q, n, candidates):
    pred = predict_count(p, q, n)
    assert pred.ambiguous
    assert pred.case == CASE_AMBIGUOUS
    assert pred.candidates == candidates
    assert pred.n_colorings is None


def test_residue_periodicity():
    for p in (3, 5, 7):
        for q in range(0, 2 * p):
            for n in range(2, 13):
                a = predict_count(p, q, n)
                b = predict_count(p, q + 2 * p, n)
                assert a.case == b.case
                assert a.candidates == b.candidates
                assert a.residue == b.residue == q


def test_candidates_are_multiples_of_n():
    for p in (3, 5, 7):
        for q in range(0, 2 * p + 1):
            for n in range(2, 16):
                pred = predict_count(p, q, n)
                for value in pred.candidates:
                    assert value >= n
                    assert value % n == 0
                assert math.gcd(pred.n, pred.p) == pred.gcd_np


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_rejects_non_odd_prime_p(p):
    with pytest.raises(ValueError):
        predict_count(p, 2, 3)


def test_rejects_bad_q_and_n():
    with pytest.raises(ValueError):
        predict_count(5, -1, 3)
    with pytest.raises(ValueError):
        predict_count(5, 2, 1)
    with pytest.raises(ValueError):
        predict_count(5, 2, 0)


def test_verify_counts_linear_only_grid():
    # cap 1 forces every cell below the oracle threshold, so this pins the
    # linear backend against the predictor across a full residue period
    report = verify_counts([5], range(0, 21), range(2, 10), cap=1)
    assert len(report) == 21 * 8
    assert [(r.p, r.q, r.n) for r in report] == sorted((5, q, n) for q in range(21) for n in range(2, 10))
    for rec in report:
        assert rec.computed_oracle is None
        assert rec.status in (STATUS_MATCH, STATUS_AMBIGUOUS_RESOLVED)
        if rec.status == STATUS_AMBIGUOUS_RESOLVED:
            assert rec.n == 5
            assert rec.computed == 25
        else:
            assert rec.computed == rec.prediction.n_colorings


def test_verify_counts_runs_oracle_when_feasible():
    report = verify_counts([3], range(0, 7), range(2, 5))
    for rec in report:
        assert rec.computed_oracle is not None
        assert rec.computed_oracle == rec.computed_linear
        assert rec.status != STATUS_MISMATCH


def test_verify_counts_parallel_matches_serial():
    serial = verify_counts([3], range(0, 7), [2, 3], cap=1, jobs=1)
    parallel = verify_counts([3], range(0, 7), [2, 3], cap=1, jobs=2)
    assert serial == parallel


def test_verify_counts_parallel_matches_serial_with_the_oracle():
    # 5**5 <= 4000 < 4**7: p = 3 and 5 run the oracle at every n, p = 7 at n <= 3
    serial = verify_counts([3, 5, 7], range(0, 15), [2, 3, 4, 5], cap=4000, jobs=1)
    parallel = verify_counts([3, 5, 7], range(0, 15), [2, 3, 4, 5], cap=4000, jobs=2)
    assert serial == parallel
    assert [(r.p, r.q, r.n) for r in serial] == sorted(
        (p, q, n) for p in (3, 5, 7) for q in range(15) for n in (2, 3, 4, 5)
    )
    for rec in serial:
        assert (rec.computed_oracle is not None) == (rec.n**rec.p <= 4000)
        assert rec.computed_oracle in (None, rec.computed_linear)


def test_cell_record_to_dict():
    rec = verify_counts([5], [4], [3], cap=1)[0]
    assert rec.to_dict() == {
        "p": 5,
        "q": 4,
        "n": 3,
        "predicted": 3,
        "case": CASE_GCD_EVEN,
        "computed": 3,
        "status": STATUS_MATCH,
    }
    amb = verify_counts([5], [2], [5], cap=1)[0]
    d = amb.to_dict()
    assert d["predicted"] == [5, 25]
    assert d["computed"] == 25
    assert d["status"] == STATUS_AMBIGUOUS_RESOLVED
