"""The benchmark's workloads: fixed argv lists plus seed-generated braid words.

Every invocation is a plain argv list for ``quandlequiver.cli.main``.  The
token ``{out}`` stands for a per-pass scratch directory and is filled in by
the worker.  Each invocation carries its expected outcome: an exit code,
the sha256 of stdout and of every output file, and optionally the number
of lines stderr must hold.  Invocations marked ``probe`` are known defects
of the program; their expectation is the *correct* outcome, not the
current one.

This module does not import the program: expectations for generated
words come from an independent modular elimination (``reference_count``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("sweep", "words", "compare", "blocks")
# workloads whose wall time is scaled by the calibration kernel (see
# worker.py).  The sweep is left raw: its time is one 16 s invocation of
# numpy loops, which drifts less than kernel samples taken only at its ends.
SCALED = ("words", "compare", "blocks")

# words: one small word per strand count, each run through every backend,
# and many larger words run through the linear (Smith form) backend.  The
# seed picks the letters only; the sizes are fixed here.
SMALL_WORDS = ((5, 36), (6, 36), (7, 36))  # (strands, letters)
SMALL_STATE_LIMIT = 10**6                   # moduli run from 2 to the largest n with n**strands <= this
LARGE_WORDS = 120
LARGE_SHAPE = (12, 120)
LARGE_MODULI = tuple(range(2, 10))


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Invocation:
    id: str
    argv: list[str]
    exit: int
    stdout: str                        # sha256 of stdout
    files: dict[str, str] = field(default_factory=dict)  # name under {out} -> sha256
    stderr_lines: int | None = None    # exact stderr line count, when fixed
    probe: bool = False


# --- fixed workloads -----------------------------------------------------

def _quiver(link: str, n: int, *extra: str) -> list[str]:
    return ["quiver", "--link", link, "--n", str(n), *extra]


SWEEP = [
    ("verify_p357", ["verify", "--p", "3,5,7", "--q", "0..14", "--n", "2..9",
                     "--oracle-cap", "1000000", "--jobs", "1",
                     "--csv", "{out}/sweep.csv", "--out", "{out}/sweep.json"]),
    ("count_t5_4", ["count", "--link", "torus:5,4", "--n", "2..9"]),
]

# (id, link, n): the four acceptance quivers, then larger and harder ones
COMPARE = [
    ("t5_2_r5", "torus:5,2", 5),
    ("t5_5_r6", "torus:5,5", 6),
    ("t5_10_r3", "torus:5,10", 3),
    ("t7_2_r14", "torus:7,2", 14),
    ("t3_6_r7", "torus:3,6", 7),
    ("t7_7_r8", "torus:7,7", 8),
    ("t5_5_r30", "torus:5,5", 30),
]
# known defect: the isomorphism search recurses once per vertex and dies
# with RecursionError above about 1000 vertices
COMPARE_PROBES = [
    ("t5_10_r5", "torus:5,10", 5),
    ("t7_14_r3", "torus:7,14", 3),
]

BLOCKS = [
    ("json_t5_10_r5", _quiver("torus:5,10", 5, "--format", "json", "--out", "{out}/t5_10_r5.json")),
    ("json_t7_14_r3", _quiver("torus:7,14", 3, "--format", "json", "--out", "{out}/t7_14_r3.json")),
    ("collapse_t7_14_r3", _quiver("torus:7,14", 3, "--collapse", "--out", "{out}/t7_14_r3.dot")),
]

# known defect: bad requests end in a traceback; the documented outcome is
# exit 2 with a one-line error on stderr and nothing on stdout
BAD_REQUESTS = [
    ("bad_letter", ["count", "--link", "s1 x2", "--n", "5"]),
    ("bad_modulus", ["count", "--link", "torus:5,2", "--n", "1"]),
    ("bad_strands", ["count", "--link", "torus:1,2", "--n", "5"]),
]


def compare_argv(link: str, n: int, compare: bool, out: str) -> list[str]:
    extra = ["--compare"] if compare else []
    return _quiver(link, n, *extra, "--out", "{out}/" + out)


def fixed_argv(workload: str) -> list[tuple[str, list[str], bool]]:
    """(id, argv, probe) for the workloads whose inputs do not depend on the seed."""
    if workload == "sweep":
        return [(i, a, False) for i, a in SWEEP]
    if workload == "compare":
        rows = [(i, compare_argv(link, n, True, i + ".dot"), False) for i, link, n in COMPARE]
        rows += [(i, compare_argv(link, n, True, i + ".dot"), True) for i, link, n in COMPARE_PROBES]
        return rows
    if workload == "blocks":
        return [(i, a, False) for i, a in BLOCKS]
    raise ValueError(f"no fixed argv list for workload {workload!r}")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def fixed_plan(workload: str, expected: dict) -> list[Invocation]:
    table = expected[workload]
    plan = []
    for inv_id, argv, probe in fixed_argv(workload):
        want = table[inv_id]
        plan.append(Invocation(
            id=inv_id, argv=argv, exit=want["exit"], stdout=want["stdout"],
            files=dict(want["files"]), probe=probe,
        ))
    return plan


# --- generated words -----------------------------------------------------

def random_word(rng: random.Random, strands: int, length: int) -> list[int]:
    """A signed braid word that is not a power of a shorter word."""
    while True:
        letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if smallest_period(letters) == length:
            return letters


def smallest_period(letters) -> int:
    """Length of the shortest w with letters == w^q; len(letters) if aperiodic."""
    n = len(letters)
    for d in range(1, n):
        if n % d == 0 and list(letters[d:]) == list(letters[:-d]):
            return d
    return n


def word_text(letters) -> str:
    return " ".join(("-" if l < 0 else "") + f"s{abs(l)}" for l in letters)


def _factor(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _closure_rows(letters, strands: int, modulus: int) -> list[list[int]]:
    """(M - I) mod modulus, M the dihedral propagation matrix of the word.

    A positive letter s_i sends colors (x, y) at (i, i+1) to (y, 2y - x),
    a negative one to (2x - y, x).
    """
    m = [[int(i == j) for j in range(strands)] for i in range(strands)]
    for letter in letters:
        i = abs(letter) - 1
        a, b = m[i], m[i + 1]
        if letter > 0:
            m[i], m[i + 1] = b, [(2 * y - x) % modulus for x, y in zip(a, b)]
        else:
            m[i], m[i + 1] = [(2 * x - y) % modulus for x, y in zip(a, b)], a
    return [[(v - int(i == j)) % modulus for j, v in enumerate(row)] for i, row in enumerate(m)]


def _valuation(x: int, prime: int, k: int) -> int:
    if x == 0:
        return k
    v = 0
    while x % prime == 0:
        x //= prime
        v += 1
    return v


def _local_kernel(letters, strands: int, prime: int, k: int) -> int:
    """Solutions of (M - I) y = 0 over Z / prime^k, by valuation pivoting."""
    q = prime**k
    rows = _closure_rows(letters, strands, q)
    count = 1
    pivots = 0
    while rows:
        best = min(
            ((_valuation(x, prime, k), i, j) for i, row in enumerate(rows) for j, x in enumerate(row)),
            default=(k, -1, -1),
        )
        v, pi, pj = best
        if v >= k:
            break
        pivot_row = rows.pop(pi)
        unit = pivot_row[pj] // prime**v
        inv = pow(unit, -1, q)
        pivot_row = [(x * inv) % q for x in pivot_row]  # pivot entry is prime^v
        for row in rows:
            f = row[pj] // prime**v
            if f:
                for j in range(len(row)):
                    row[j] = (row[j] - f * pivot_row[j]) % q
        for row in rows:
            del row[pj]
        count *= prime**v
        pivots += 1
    return count * q ** (strands - pivots)


def reference_count(letters, strands: int, n: int) -> int:
    """Colorings of the closure of the word by R_n, counted independently of the program."""
    count = 1
    for prime, k in _factor(n):
        count *= _local_kernel(letters, strands, prime, k)
    return count


def _count_invocation(inv_id: str, letters, strands: int, moduli, backend: str) -> Invocation:
    link = word_text(letters)
    lines = "".join(
        f"{link} n={n}: N={reference_count(letters, strands, n)} [ok]\n" for n in moduli
    )
    argv = ["count", "--link", link, "--n", f"{moduli[0]}..{moduli[-1]}", "--backend", backend]
    return Invocation(id=inv_id, argv=argv, exit=0, stdout=sha256(lines))


def words_plan(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    plan = []
    for strands, length in SMALL_WORDS:
        letters = random_word(rng, strands, length)
        top = 2
        while (top + 1) ** strands <= SMALL_STATE_LIMIT:
            top += 1
        plan.append(_count_invocation(
            f"small_{strands}x{length}", letters, strands, range(2, top + 1), "all"))
    strands, length = LARGE_SHAPE
    for k in range(LARGE_WORDS):
        letters = random_word(rng, strands, length)
        plan.append(_count_invocation(
            f"large_{k:03d}", letters, strands, LARGE_MODULI, "linear"))
    for inv_id, argv in BAD_REQUESTS:
        plan.append(Invocation(id=inv_id, argv=argv, exit=2, stdout=sha256(""),
                               stderr_lines=1, probe=True))
    return plan


def build_plan(workload: str, seed: int) -> list[Invocation]:
    if workload == "words":
        return words_plan(seed)
    return fixed_plan(workload, load_expected())


def plan_to_json(plan: list[Invocation]) -> list[dict]:
    return [asdict(inv) for inv in plan]


def plan_from_json(rows: list[dict]) -> list[Invocation]:
    return [Invocation(**row) for row in rows]
