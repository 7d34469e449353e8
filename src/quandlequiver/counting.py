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
system mod the lcm of the moduli, and one oracle walk per modulus for
all the links' powers at once, through colorings.oracle_counts.  On R_n
that walk takes the n**(p-1) tops with strand 1 coloured 0, one per
orbit of the colour shift, and multiplies by n; the oracle cap still
counts all n**p candidate tops.  No route writes a torus link out as
letters, so every backend answers a huge q.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .braids import TorusLinkSpec, closure_system, factor_power
from .colorings import check_oracle_cap, oracle_counts
from .config import oracle_cap
from .linalg import kernel_count_from_snf, smith_normal_form
from .quandles import DihedralQuandle

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
    residue: int  # q mod 2p
    gcd_np: int
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
        return CountPrediction(
            p=p,
            q=q,
            n=n,
            residue=residue,
            gcd_np=gcd_np,
            case=case,
            candidates=tuple(sorted(candidates)),
        )

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
) -> Iterator[CellRecord]:
    """Evaluate links at each modulus in `ns`, link by link: one Smith form
    per link, mod the lcm of `ns`; one oracle walk per modulus in
    `oracle_ns` for all the links' powers, the largest checked against
    `cap` before any route runs (CapExceededError); and the formula, for
    T(p, q) with p an odd prime.  The oracle walk needs the links to close
    powers of one factor (a ValueError otherwise); the formula and the
    Smith form take each link alone, so they never read its factor."""
    oracle = {}  # n -> the oracle count of each link
    if oracle_ns:  # only the oracle reads the factor: T(p, q)'s has p - 1 letters
        factors, qs = zip(*(factor_power(link) for link in links))
        [factor] = set(factors)  # a ValueError unless the links share one factor
        # before R_n's n-by-n table is built
        check_oracle_cap(max(oracle_ns), factor.strands, cap)
        for n in oracle_ns:
            counts = oracle_counts(factor, DihedralQuandle(n), qs, cap=cap)
            oracle[n] = [counts[q] for q in qs]
    modulus = _lcm(ns) if linear else None
    for i, link in enumerate(links):
        predict = formula and isinstance(link, TorusLinkSpec) and is_odd_prime(link.p)
        snf = smith_normal_form(closure_system(link, modulus), modulus) if linear else None
        for n in ns:
            prediction = predict_count(link.p, link.q, n) if predict else None
            count = kernel_count_from_snf(snf, n) if linear else None
            yield CellRecord(n, prediction, count, oracle[n][i] if n in oracle else None)


def _verify_p(task: tuple[int, list[int], list[int], int]) -> list[CellRecord]:
    """The cells of one p, sorted by (q, n): one oracle walk per modulus
    within the cap counts every q at once."""
    p, qs, ns, cap = task
    links = [TorusLinkSpec(p, q) for q in qs]  # rejects a negative q before any walk
    return list(evaluate_cells(links, ns, oracle_ns=[n for n in ns if n**p <= cap], cap=cap))


def verify_counts(
    ps,
    qs,
    ns,
    cap: int | None = None,
    jobs: int = 1,
) -> list[CellRecord]:
    """Sweep a (p, q, n) grid, comparing backends against predictions.

    Cells with n**p above the oracle cap are checked with the linear
    backend alone.  Each p is one task, so up to `jobs` workers, one per
    task at most, split the grid by p.  Results come back sorted by
    (p, q, n) regardless of worker scheduling.
    """
    for p in ps:
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
    limit = oracle_cap() if cap is None else cap
    qs, ns = sorted(qs), sorted(ns)
    tasks = [(p, qs, ns, limit) for p in sorted(ps) if qs]  # an empty grid has no tasks
    # the pool forks all its workers at once, so it gets one per task at most
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled sweep pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            grids = list(pool.map(_verify_p, tasks))
    else:
        grids = [_verify_p(task) for task in tasks]
    return [record for cells in grids for record in cells]
