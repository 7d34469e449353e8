"""Tests for the closed-form count predictor and the sweep harness.

Ambiguity is load-bearing: cells where published case rules disagree carry
both candidates, and the sweep must resolve them against computation
rather than silently picking one.
"""

import concurrent.futures
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import enumerate_colorings as reference_colorings
from quandlequiver.braids import TorusLinkSpec, torus_braid
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
    evaluate_cells,
    is_odd_prime,
    is_prime,
    predict_count,
    verify_counts,
)
from quandlequiver.quandles import DihedralQuandle


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=40))
def test_lcm_tree_equals_math_lcm(ns):
    assert _lcm(ns) == math.lcm(*ns)


def test_is_odd_prime():
    assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_equals_trial_division():
    for n in range(-2, 2 * 10**5):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))), n


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the bases 2, 3, 5, 7; 2 through 23; and 2 through 37
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 10**18 + 3, 10**18 + 9])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_past_its_bound():
    # the least composite that every base 2..41 passes
    assert not is_prime(3317044064679887385961981 - 2)
    with pytest.raises(ValueError, match="primality is decided only below"):
        is_prime(3317044064679887385961981)


def test_only_the_oracle_needs_one_factor():
    links = [TorusLinkSpec(3, 2), TorusLinkSpec(5, 2)]
    with pytest.raises(ValueError):
        list(evaluate_cells(links, [5], oracle_ns=[5]))
    cells = list(evaluate_cells(links, [5]))
    assert [c.computed_linear for c in cells] == [5, 25]


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


def test_verify_pool_has_at_most_one_worker_per_task(monkeypatch):
    # the fork pool starts all max_workers processes at its first submit;
    # this stand-in starts none and maps in the calling process
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = verify_counts([3, 5], range(4), [2, 3], cap=1)
    assert verify_counts([3, 5], range(4), [2, 3], cap=1, jobs=8) == serial
    assert pools == [2]
    assert verify_counts([3], range(4), [2, 3], cap=1, jobs=8) == serial[:8]
    assert verify_counts([3, 5], [], [2, 3], cap=1, jobs=8) == []
    assert pools == [2]  # one task or none: no pool


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


def torus_cells(ps):
    """(p, n) for p in ps, with n**p, the oracle's state map, at most 10**5 states."""
    return st.sampled_from(ps).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(2, max(n for n in range(2, 317) if n**p <= 10**5)))
    )


def routes(p, qs, n):
    """One cell per q of T(p, q) by R_n, from one evaluate_cells call."""
    return list(evaluate_cells([TorusLinkSpec(p, q) for q in qs], [n], oracle_ns=[n]))


@settings(max_examples=40)
@given(torus_cells([3, 5, 7]), st.data(), st.integers(0, 10**17))
def test_huge_odd_p_powers_equal_their_residue(cell, data, k):
    # for odd p the factor's matrix has M**(2p) = I, so T(p, q) depends on q mod 2p;
    # one call walks the oracle from r straight to the huge power
    p, n = cell
    r = data.draw(st.integers(0, 2 * p - 1))
    expected = len(reference_colorings(torus_braid(p, r), DihedralQuandle(n)))
    small, huge = routes(p, [r, r + k * 2 * p], n)
    for record in (small, huge):
        assert record.computed_linear == record.computed_oracle == expected
        assert record.prediction.candidates == predict_count(p, r, n).candidates
        assert expected in record.prediction.candidates


@settings(max_examples=30)
@given(torus_cells([2, 4, 6]), st.integers(0, 10**18), st.integers(0, 10**18))
def test_huge_even_p_powers_agree_across_routes(cell, q, q2):
    p, n = cell
    for record in routes(p, [q, q2], n):
        assert record.prediction is None
        assert record.computed_linear == record.computed_oracle


@settings(max_examples=40)
@given(torus_cells([2, 3, 4, 5, 6, 7]), st.data())
def test_small_powers_equal_the_reference_on_the_written_word(cell, data):
    p, n = cell
    q = data.draw(st.integers(0, 4 * p))
    [record] = routes(p, [q], n)
    expected = len(reference_colorings(torus_braid(p, q), DihedralQuandle(n)))
    assert record.computed_linear == record.computed_oracle == expected
