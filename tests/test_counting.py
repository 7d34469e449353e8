"""Tests for the closed-form count predictor and the sweep harness.

Ambiguity is load-bearing: cells where published case rules disagree carry
both candidates, and the sweep must resolve them against computation
rather than silently picking one.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braid_reference import torus_braid
from oracle_reference import enumerate_colorings as reference_colorings
from quandle_reference import dihedral
from quandlequiver import counting
from quandlequiver.braids import BraidWord, TorusLinkSpec
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
    _prime_powers,
    evaluate_cells,
    is_odd_prime,
    is_prime,
    predict_count,
    verify_counts,
)


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
                for period in (1, 2, 7):
                    b = predict_count(p, q + period * 2 * p, n)
                    assert (a.case, a.candidates) == (b.case, b.candidates)


def test_candidates_are_multiples_of_n():
    for p in (3, 5, 7):
        for q in range(0, 2 * p + 1):
            for n in range(2, 16):
                pred = predict_count(p, q, n)
                for value in pred.candidates:
                    assert value >= n
                    assert value % n == 0


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_rejects_non_odd_prime_p(p):
    with pytest.raises(ValueError):
        predict_count(p, 2, 3)


@settings(max_examples=300)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 101, 641]),
    st.integers(0, 3),
    st.integers(2, 10**4),
    st.integers(1, 700),
)
def test_a_count_too_long_by_its_bit_length_is_too_long(p, k, n, digits):
    # q = k*p: the powers n^p and 2^(p-1)*n.  evaluate_cells raises
    # CountTooLong on this test alone, before the count is built; it must
    # never refuse a count that would print
    if counting._too_long(p, k * p, n, digits):
        assert max(predict_count(p, k * p, n).candidates) >= 10**digits


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
    # 5**5 <= 4000 < 4**7: p = 3 and 5 run the oracle at every n, p = 7 at n <= 3;
    # the records come sorted by (p, q, n) whatever order the grid is given in
    report = verify_counts([7, 3, 5], range(14, -1, -1), [5, 3, 2, 4], cap=4000)
    assert [(r.p, r.q, r.n) for r in report] == sorted(
        (p, q, n) for p in (3, 5, 7) for q in range(15) for n in (2, 3, 4, 5)
    )
    for rec in report:
        assert (rec.computed_oracle is not None) == (rec.n**rec.p <= 4000)
        assert rec.computed_oracle in (None, rec.computed_linear)
    assert verify_counts([3, 5], [], [2, 3], cap=4000) == []


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
    expected = len(reference_colorings(torus_braid(p, r), dihedral(n)))
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
    expected = len(reference_colorings(torus_braid(p, q), dihedral(n)))
    assert record.computed_linear == record.computed_oracle == expected


def is_prime_power(r: int) -> bool:
    if r < 2:
        return False
    d = next(d for d in range(2, r + 1) if r % d == 0)  # r's least prime factor
    while r % d == 0:
        r //= d
    return r == 1


PRIMES_TO_200 = [d for d in range(2, 201) if all(d % e for e in range(2, d))]


def prime_power_parts(n: int) -> list[int]:
    """The prime powers exactly dividing 1 <= n <= 200, ascending, read off
    the primes up to 200: the reference for counting._prime_powers."""
    parts = []
    for d in PRIMES_TO_200:
        power = 1
        while n % (power * d) == 0:
            power *= d
        if power > 1:
            parts.append(power)
    return parts


def test_dihedral_table_is_the_crt_product_of_its_prime_power_parts():
    # x -> (x mod r) for the prime powers r exactly dividing n is a bijection
    # of Z_n onto the product of the Z_r that carries R_n's table onto theirs
    for n in range(1, 201):
        parts = _prime_powers(n)
        assert parts == prime_power_parts(n)
        assert math.prod(parts) == n and all(map(is_prime_power, parts))
        assert all(math.gcd(a, b) == 1 for i, a in enumerate(parts) for b in parts[i + 1 :])
        x = np.arange(n)
        residues = {tuple(int(v) % r for r in parts) for v in x}
        assert len(residues) == n
        table = dihedral(n).table
        for r in parts:
            assert np.array_equal(table % r, dihedral(r).table[np.ix_(x % r, x % r)])


def oracle_cells(links, n):
    cells = evaluate_cells(links, [n], formula=False, linear=False, oracle_ns=[n])
    return [cell.computed_oracle for cell in cells]


@pytest.mark.parametrize("n", [6, 10, 12, 15, 30])
def test_composite_oracle_counts_equal_full_walks(n, monkeypatch):
    walked = []
    walk = counting.oracle_counts

    def recording(factor, r, powers):
        walked.append(r)
        return walk(factor, r, powers)

    monkeypatch.setattr(counting, "oracle_counts", recording)
    quandle = dihedral(n)
    rng = random.Random(n)
    # random words, nearly all aperiodic: each closes its own factor once (q = 1)
    for strands in range(2, 5):
        if n**strands > 10**5:
            continue
        for _ in range(3):
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(9))
            word = BraidWord(strands, letters)
            assert oracle_cells([word], n) == [len(reference_colorings(word, quandle))]
    # torus powers of one factor: q = 0 and q >= 2 walk its state map
    for p in (2, 3):
        qs = [0, 1, 2, 3, 4, 6, 7]
        expected = [len(reference_colorings(torus_braid(p, q), quandle)) for q in qs]
        assert oracle_cells([TorusLinkSpec(p, q) for q in qs], n) == expected
    # only the prime power parts are walked, never R_n itself
    assert set(walked) == {6: {2, 3}, 10: {2, 5}, 12: {3, 4}, 15: {3, 5}, 30: {2, 3, 5}}[n]


INVARIANCE_NS = range(2, 10)
INVARIANCE_CAP = 9**4  # the oracle runs at every n on 4 strands, at n <= 5 on 5


def invariant_counts(word):
    """The closure's count by R_n for n = 2..9, from the linear route and, where
    n**strands is within a small cap, the oracle, which must agree with it."""
    oracle_ns = [n for n in INVARIANCE_NS if n**word.strands <= INVARIANCE_CAP]
    cells = evaluate_cells(
        [word], INVARIANCE_NS, formula=False, oracle_ns=oracle_ns, cap=INVARIANCE_CAP
    )
    counts = []
    for cell in cells:
        assert cell.computed_oracle in (None, cell.computed_linear), (word, cell)
        counts.append(cell.computed_linear)
    return counts


@st.composite
def signed_words(draw):
    strands = draw(st.integers(2, 4))
    letter = st.integers(1, strands - 1).flatmap(lambda k: st.sampled_from((k, -k)))
    return BraidWord(strands, tuple(draw(st.lists(letter, min_size=1, max_size=8))))


@settings(max_examples=60)
@given(signed_words(), st.data())
def test_equivalent_braids_have_equal_counts(word, data):
    # a coloring count is a link invariant: words whose closures are the same
    # link, or its mirror or reverse, have equal counts by every R_n
    s, letters = word.strands, word.letters
    at = data.draw(st.integers(0, len(letters)), label="at")

    def inserted(*extra):
        return letters[:at] + extra + letters[at:]

    k = data.draw(st.integers(1, s - 1), label="k")
    sign = data.draw(st.sampled_from((1, -1)), label="sign")
    equivalent = [
        BraidWord(s, letters[at:] + letters[:at]),  # a conjugate
        BraidWord(s + 1, letters + (s,)),  # the two Markov stabilizations
        BraidWord(s + 1, letters + (-s,)),
        BraidWord(s, tuple(-l for l in letters)),  # the mirror
        BraidWord(s, letters[::-1]),  # the reverse
        BraidWord(s, inserted(sign * k, -sign * k)),  # a cancelling pair
    ]
    expected = invariant_counts(word)
    for other in equivalent:
        assert invariant_counts(other) == expected, (word, other)
    # one rewrite by a braid relation, s_i s_i+1 s_i = s_i+1 s_i s_i+1, or by
    # far commutation, s_i s_j = s_j s_i for |i - j| >= 2, on s + 1 strands so
    # that s_i+1 exists for every i < s
    i = data.draw(st.integers(1, s - 1), label="i")
    far = [e * j for j in range(1, s + 1) if abs(i - j) >= 2 for e in (1, -1)]
    if far and data.draw(st.booleans(), label="far"):
        j = data.draw(st.sampled_from(far), label="j")
        a, b = inserted(sign * i, j), inserted(j, sign * i)
    else:
        a = inserted(sign * i, sign * (i + 1), sign * i)
        b = inserted(sign * (i + 1), sign * i, sign * (i + 1))
    assert invariant_counts(BraidWord(s + 1, a)) == invariant_counts(BraidWord(s + 1, b)), (a, b)


def test_torus_links_are_symmetric_on_the_linear_route():
    # T(p, q) and T(q, p) are the same link
    for p in range(2, 6):
        for q in range(p + 1, 6):
            counts = [
                [cell.computed_linear for cell in evaluate_cells([link], INVARIANCE_NS, formula=False)]
                for link in (TorusLinkSpec(p, q), TorusLinkSpec(q, p))
            ]
            assert counts[0] == counts[1], (p, q)
