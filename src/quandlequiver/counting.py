"""Closed-form coloring counts for torus links and grid verification.

For an odd prime p, the number N of colorings of T(p, q) by the dihedral
quandle R_n depends only on q mod 2p, gcd(n, p), and the parity of n:

  q = 0 mod 2p:            N = n^p      (the closure system vanishes)
  q odd, q != p mod 2p:    N = n        (trivial colorings only)
  q even, q != 0 mod 2p:   N = n        when gcd(n, p) = 1
                           N = p*n      when gcd(n, p) = p and n >= 2p
                           n = p        is recorded as ambiguous: published
                                        case tables give p*n, the summary
                                        rule gives n, and computation sides
                                        with p*n
  q = p mod 2p:            N = n        for n odd
                           N = 2^(p-1)*n for n even
                           for p = 7 a published table contradicts the
                           parity rule on part of this row; those cells are
                           recorded as ambiguous with both candidates

Ambiguous cells never get a silent winner here: predict_count carries both
candidates and the computed counts resolve them, reporting the resolution
explicitly.  evaluate_cells is the one place where cells' routes are run
and their statuses decided; count hands it one link and verify_counts the
links T(p, q) of one p, all powers of the factor s_1 ... s_{p-1}
(braids.factor_power).  It takes one Smith form per link, of the closure
system mod the lcm of the moduli, and one oracle walk per prime power r
dividing a modulus, for all the links' powers at once, through
colorings.oracle_counts; R_n's oracle count is the product of its prime
power parts' counts (the Chinese remainder theorem), so no composite
R_n's table is built.  On R_r that walk takes the r**(p-1) tops with
strand 1 coloured 0, one per orbit of the colour shift, and multiplies
by r; the oracle cap, checked here and nowhere else before a walk, still
counts all n**p candidate tops of the largest requested modulus, and so
bounds every part.  No route writes a torus link out as letters, so
every backend answers a huge q.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .braids import TorusLinkSpec, closure_system, factor_power
from .colorings import check_oracle_cap, oracle_counts, over_oracle_cap
from .config import oracle_cap
from .errors import CountTooLong
from .linalg import kernel_count_from_snf, smith_normal_form

CASE_FREE = "free"
CASE_TRIVIAL_ONLY = "trivial-only"
CASE_GCD_EVEN = "gcd-even"
CASE_HALF_PERIOD = "half-period"
CASE_AMBIGUOUS = "ambiguous"

STATUS_MATCH = "match"
STATUS_AMBIGUOUS = "ambiguous"  # a prediction with no computed count to settle it
STATUS_AMBIGUOUS_RESOLVED = "ambiguous-resolved"
STATUS_MISMATCH = "mismatch"


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least composite that passes Miller-Rabin to every base above; the
# bases up to 37 alone let 318665857834031151167461 through
_PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41: exact for every
    n below _PRIMALITY_BOUND (about 3.3*10**24); a larger n is a ValueError."""
    if n >= _PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {_PRIMALITY_BOUND}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(p: int) -> bool:
    return p != 2 and is_prime(p)


def _prime_powers(n: int) -> list[int]:
    """The prime powers exactly dividing n >= 1, ascending by prime, by trial
    division; [] for n = 1."""
    parts, d = [], 2
    while d * d <= n:
        if n % d == 0:
            power = 1
            while n % d == 0:
                n, power = n // d, power * d
            parts.append(power)
        d += 1
    if n > 1:
        parts.append(n)
    return parts


@dataclass(frozen=True)
class CountPrediction:
    """Predicted coloring count of T(p, q) by R_n.

    `candidates` holds one value normally and both published values in
    ambiguous cells, sorted ascending; `n_colorings` is None when
    ambiguous.
    """

    p: int
    q: int
    n: int
    case: str
    candidates: tuple[int, ...]

    @property
    def ambiguous(self) -> bool:
        return self.case == CASE_AMBIGUOUS

    @property
    def n_colorings(self) -> int | None:
        return None if self.ambiguous else self.candidates[0]

    @property
    def predicted(self) -> int | list[int]:
        """The predicted count, or the candidate list when ambiguous."""
        return list(self.candidates) if self.ambiguous else self.n_colorings


def predict_count(p: int, q: int, n: int) -> CountPrediction:
    """Closed-form count of colorings of T(p, q) by R_n, p an odd prime."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    residue = q % (2 * p)
    gcd_np = math.gcd(n, p)
    even = n % 2 == 0

    def make(case, *candidates):
        return CountPrediction(p=p, q=q, n=n, case=case, candidates=tuple(sorted(candidates)))

    if residue == 0:
        return make(CASE_FREE, n**p)
    if residue == p:
        # parity rule: n odd -> n, n even -> 2^(p-1) * n.  The published
        # p = 7 table instead keys on divisibility by 7; where the two
        # disagree the cell is ambiguous.
        parity_value = 2 ** (p - 1) * n if even else n
        if p == 7:
            table_value = 2 ** (p - 1) * n if (n % 7 == 0 and n >= 14) else n
            if table_value != parity_value:
                return make(CASE_AMBIGUOUS, parity_value, table_value)
        return make(CASE_HALF_PERIOD, parity_value)
    if residue % 2 == 1:
        return make(CASE_TRIVIAL_ONLY, n)
    # q even, not divisible by 2p
    if gcd_np == 1:
        return make(CASE_GCD_EVEN, n)
    if n == p:
        # published case tables give p*n here, the summary rule gives n
        return make(CASE_AMBIGUOUS, n, p * n)
    return make(CASE_GCD_EVEN, p * n)


def _too_long(p: int, q: int, n: int, digits: int) -> bool:
    """Whether predict_count(p, q, n) has a count of more than `digits`
    decimal digits, told from (p, q mod 2p, n) before the count is built:
    for n of b bits, n**p has at least p*(b - 1) + 1 bits and 2**(p-1)*n
    exactly p - 1 + b.  A power this passes has under 20*digits/3 bits,
    cheap to build and then checked exactly where it is written."""
    residue = q % (2 * p)
    if residue == 0:
        bits = p * (n.bit_length() - 1) + 1
    elif residue == p and n % 2 == 0:
        bits = p - 1 + n.bit_length()
    else:
        return False
    # 2**(bits - 1) >= 10**digits once 3 * (bits - 1) >= 10 * digits, as log2(10) < 10/3
    return 3 * (bits - 1) >= 10 * digits


@dataclass(frozen=True)
class CellRecord:
    """One (link, n) cell: the count from each route that ran, and its status.

    `prediction` is None unless the link is T(p, q) with p an odd prime;
    a count is None when its route did not run.
    """

    n: int
    prediction: CountPrediction | None
    computed_linear: int | None
    computed_oracle: int | None

    @property
    def p(self) -> int:
        return self.prediction.p

    @property
    def q(self) -> int:
        return self.prediction.q

    @property
    def computed(self) -> int | None:
        return self.computed_oracle if self.computed_oracle is not None else self.computed_linear

    @property
    def routes_disagree(self) -> bool:
        return None not in (self.computed_linear, self.computed_oracle) and (
            self.computed_linear != self.computed_oracle
        )

    @property
    def status(self) -> str:
        """The one status rule: routes must agree, then match the prediction."""
        prediction, computed = self.prediction, self.computed
        if self.routes_disagree:
            return STATUS_MISMATCH
        if prediction is None:
            return STATUS_MATCH
        if computed is None:
            return STATUS_AMBIGUOUS if prediction.ambiguous else STATUS_MATCH
        if computed not in prediction.candidates:
            return STATUS_MISMATCH
        return STATUS_AMBIGUOUS_RESOLVED if prediction.ambiguous else STATUS_MATCH

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "predicted": self.prediction.predicted,
            "case": self.prediction.case,
            "computed": self.computed,
            "status": self.status,
        }


def _lcm(ns) -> int:
    """The lcm of ns by a balanced tree of pairwise lcms.

    Operands of one level have similar sizes, so the cost stays near that
    of the last product; math.lcm(*ns) folds left and is quadratic in the
    bits of the result.
    """
    ns = list(ns)
    while len(ns) > 1:
        ns = [math.lcm(*ns[i : i + 2]) for i in range(0, len(ns), 2)]
    return math.lcm(*ns)


def evaluate_cells(
    links,
    ns,
    formula: bool = True,
    linear: bool = True,
    oracle_ns=(),
    cap: int | None = None,
    digits: int = 0,
) -> Iterator[CellRecord]:
    """Evaluate links at each modulus in `ns`, link by link: one Smith form
    per link, mod the lcm of `ns`; one oracle walk per prime power dividing
    a modulus in `oracle_ns` for all the links' powers, the largest modulus
    checked against `cap`, on the links' strand count, before any route
    runs or any factor is written out (CapExceededError); and the formula,
    for T(p, q) with p an odd prime.

    An oracle count by R_n is the product of its counts by the R_r, r the
    prime powers exactly dividing n: x -> (x mod r) is an isomorphism of
    R_n onto the product of the R_r (the Chinese remainder theorem, as
    x * y = 2y - x is a ring expression), and a crossing acts on each
    factor alone, so a top is fixed when each of its parts is.  No table
    of a composite R_n is built, and a part that no modulus names alone is
    walked too.  The oracle walk needs the links to close powers of one
    factor (a ValueError otherwise); the formula and the Smith form take
    each link alone, so they never read its factor.

    With `digits` (0 for no limit), a cell whose formula count is a power
    of more than `digits` decimal digits by its bit length alone raises
    CountTooLong there, before the power is built; the cells before it
    are yielded."""
    oracle = {}  # n -> the oracle count of each link
    if oracle_ns:
        # the cap, on the links' one strand count, before any factor is
        # written out: only the oracle reads it, and T(p, q)'s has p - 1 letters
        [strands] = {link.p if isinstance(link, TorusLinkSpec) else link.strands for link in links}
        check_oracle_cap(max(oracle_ns), strands, cap)
        factors, qs = zip(*(factor_power(link) for link in links))
        [factor] = set(factors)  # a ValueError unless the links share one factor
        parts = {n: _prime_powers(n) for n in oracle_ns}
        walked = {}  # prime power -> the oracle count of each link by its R
        for part in sorted(set().union(*parts.values())):
            counts = oracle_counts(factor, part, qs)
            walked[part] = [counts[q] for q in qs]
        for n in oracle_ns:
            oracle[n] = [math.prod(walked[part][i] for part in parts[n]) for i in range(len(links))]
    modulus = _lcm(ns) if linear else None
    for i, link in enumerate(links):
        predict = formula and isinstance(link, TorusLinkSpec) and is_odd_prime(link.p)
        snf = smith_normal_form(closure_system(link, modulus), modulus) if linear else None
        for n in ns:
            if predict and digits and _too_long(link.p, link.q, n, digits):
                raise CountTooLong(n, digits)
            prediction = predict_count(link.p, link.q, n) if predict else None
            count = kernel_count_from_snf(snf, n) if linear else None
            yield CellRecord(n, prediction, count, oracle[n][i] if n in oracle else None)


def verify_counts(ps, qs, ns, cap: int | None = None) -> list[CellRecord]:
    """Sweep a (p, q, n) grid, comparing backends against predictions.

    One evaluate_cells call per p counts every q of that p at once: one
    oracle walk per prime power dividing a modulus within the cap, and the
    linear backend alone for cells with n**p above it.  Results come
    sorted by (p, q, n).
    """
    for p in ps:
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
    limit = oracle_cap() if cap is None else cap
    qs, ns = sorted(qs), sorted(ns)
    records = []
    for p in sorted(ps) if qs else ():  # an empty q list has no cells
        links = [TorusLinkSpec(p, q) for q in qs]  # rejects a negative q before any walk
        oracle_ns = [n for n in ns if not over_oracle_cap(n, p, limit)]
        records.extend(evaluate_cells(links, ns, oracle_ns=oracle_ns, cap=limit))
    return records
