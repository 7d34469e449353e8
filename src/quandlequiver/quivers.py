"""Coloring quivers: construction, closed-form shapes, and isomorphism.

The quiver of a coloring set has one vertex per coloring and, for each
endomorphism phi of the target quandle, one arrow f -> phi . f; arrows
with the same endpoints merge into an integer weight.  Row sums therefore
all equal the number of endomorphisms supplied.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colorings import ColoringSet
from .config import iso_budget
from .counting import is_prime, predict_count
from .errors import AmbiguousCountError, InternalConsistencyError
from .quandles import DihedralQuandle, Endomorphism


class WeightedQuiver:
    """Weighted directed graph on vertices 0..n_vertices-1.

    Rows are sparse dicts target -> weight holding only nonzero weights.
    `labels`, when present, names each vertex by its coloring vector.
    """

    def __init__(self, n_vertices: int, labels: list[tuple[int, ...]] | None = None):
        if n_vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        if labels is not None and len(labels) != n_vertices:
            raise ValueError("labels must match the vertex count")
        self.n_vertices = n_vertices
        self.rows: list[dict[int, int]] = [dict() for _ in range(n_vertices)]
        self.labels = labels

    def add(self, i: int, j: int, w: int = 1):
        if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
            raise ValueError(f"edge ({i}, {j}) outside 0..{self.n_vertices - 1}")
        if w < 0:
            raise ValueError(f"weight must be nonnegative, got {w}")
        if w:
            row = self.rows[i]
            row[j] = row.get(j, 0) + w

    def weight(self, i: int, j: int) -> int:
        return self.rows[i].get(j, 0)

    def row_sum(self, i: int) -> int:
        return sum(self.rows[i].values())

    def in_rows(self) -> list[dict[int, int]]:
        rev: list[dict[int, int]] = [dict() for _ in range(self.n_vertices)]
        for i, row in enumerate(self.rows):
            for j, w in row.items():
                rev[j][i] = w
        return rev

    def weight_triples(self) -> list[tuple[int, int, int]]:
        """Sorted sparse (source, target, weight) triples."""
        return [
            (i, j, w)
            for i, row in enumerate(self.rows)
            for j, w in sorted(row.items())
            if w
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedQuiver):
            return NotImplemented
        return (
            self.n_vertices == other.n_vertices
            and self.labels == other.labels
            and [{j: w for j, w in row.items() if w} for row in self.rows]
            == [{j: w for j, w in row.items() if w} for row in other.rows]
        )

    def __repr__(self):
        edges = sum(len(r) for r in self.rows)
        return f"WeightedQuiver({self.n_vertices} vertices, {edges} weighted edges)"


def build_quiver(coloring_set: ColoringSet, endos) -> WeightedQuiver:
    """Apply every endomorphism to every coloring and record the arrows.

    The coloring list must be closed under each endomorphism (it is, for
    the full endomorphism monoid of the target); a landing outside the
    list means the inputs are inconsistent and raises.  Structural laws
    that hold by construction are re-checked on every build.
    """
    if coloring_set.colorings is None:
        raise ValueError("cannot build a quiver from a count-only coloring set")
    endos = list(endos)
    size = coloring_set.quandle.size
    for phi in endos:
        if not isinstance(phi, Endomorphism) or len(phi.images) != size:
            raise ValueError("endomorphisms must act on the coloring set's quandle")
    colorings = coloring_set.colorings
    index = {c: k for k, c in enumerate(colorings)}
    quiver = WeightedQuiver(len(colorings), labels=list(colorings))
    for phi in endos:
        for k, f in enumerate(colorings):
            g = phi.apply(f)
            j = index.get(g)
            if j is None:
                raise InternalConsistencyError(
                    f"image {g} of coloring {f} under {phi!r} is not itself a coloring"
                )
            quiver.add(k, j)
    _check_structure(quiver, coloring_set, len(endos))
    return quiver


def _check_structure(quiver: WeightedQuiver, coloring_set: ColoringSet, n_endos: int):
    for i in range(quiver.n_vertices):
        if quiver.row_sum(i) != n_endos:
            raise InternalConsistencyError(
                f"row {i} sums to {quiver.row_sum(i)}, expected {n_endos}"
            )
    trivial = set(coloring_set.trivial_indices)
    for i in trivial:
        for j, w in quiver.rows[i].items():
            if j not in trivial and w:
                raise InternalConsistencyError(
                    f"arrow from trivial coloring {i} to nontrivial {j}"
                )
    # with the full affine family over R_n, every trivial -> trivial
    # weight is exactly n
    quandle = coloring_set.quandle
    if isinstance(quandle, DihedralQuandle) and n_endos == quandle.n**2:
        for i in trivial:
            for j in trivial:
                if quiver.weight(i, j) != quandle.n:
                    raise InternalConsistencyError(
                        f"trivial block weight at ({i}, {j}) is "
                        f"{quiver.weight(i, j)}, expected {quandle.n}"
                    )


@dataclass(frozen=True)
class BlockFamily:
    """`copies` disjoint complete blocks on `size` vertices of one weight."""

    copies: int
    size: int
    weight: int

    def __post_init__(self):
        if self.copies < 1 or self.size < 1 or self.weight < 1:
            raise ValueError(
                f"block family needs copies, size, weight >= 1, got {self}"
            )


@dataclass(frozen=True)
class QuiverForm:
    """A closed-form quiver shape: complete blocks plus uniform cross arrows.

    `cross` entries (src, dst, d) put d parallel arrows from every vertex
    of every copy in family src to every vertex of every copy in family
    dst.  Complete blocks carry their weight on every ordered pair of
    their vertices, loops included.
    """

    families: tuple[BlockFamily, ...] = ()
    cross: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        k = len(self.families)
        for src, dst, d in self.cross:
            if not (0 <= src < k and 0 <= dst < k) or src == dst:
                raise ValueError(f"bad cross entry ({src}, {dst}, {d})")
            if d < 1:
                raise ValueError(f"cross weight must be at least 1, got {d}")

    @property
    def n_vertices(self) -> int:
        return sum(f.copies * f.size for f in self.families)

    @property
    def n_blocks(self) -> int:
        return sum(f.copies for f in self.families)


def complete_form(size: int, weight: int) -> QuiverForm:
    """One complete block: every ordered pair (loops included) at `weight`."""
    return QuiverForm(families=(BlockFamily(1, size, weight),))


def disjoint_union(form: QuiverForm, m: int) -> QuiverForm:
    """m disjoint copies of a cross-free form."""
    if m < 1:
        raise ValueError(f"multiplicity must be at least 1, got {m}")
    if form.cross:
        raise ValueError("disjoint union of joined forms is not supported")
    return QuiverForm(
        families=tuple(
            BlockFamily(f.copies * m, f.size, f.weight) for f in form.families
        )
    )


def join_form(g1: QuiverForm, g2: QuiverForm, d: int) -> QuiverForm:
    """Disjoint union of g1 and g2 plus d arrows from each g2 vertex to each g1 vertex."""
    if d < 1:
        raise ValueError(f"join weight must be at least 1, got {d}")
    offset = len(g1.families)
    cross = list(g1.cross)
    cross.extend((s + offset, t + offset, w) for s, t, w in g2.cross)
    cross.extend(
        (j + offset, i, d)
        for j in range(len(g2.families))
        for i in range(len(g1.families))
    )
    return QuiverForm(families=g1.families + g2.families, cross=tuple(cross))


def realize(form: QuiverForm) -> WeightedQuiver:
    """Expand a form to an explicit quiver, vertices in block-major order."""
    quiver = WeightedQuiver(form.n_vertices)
    spans: list[list[tuple[int, int]]] = []
    pos = 0
    for f in form.families:
        copies = []
        for _ in range(f.copies):
            copies.append((pos, pos + f.size))
            pos += f.size
        spans.append(copies)
    for f, family_spans in zip(form.families, spans):
        for a, b in family_spans:
            for i in range(a, b):
                row = quiver.rows[i]
                for j in range(a, b):
                    row[j] = f.weight
    for src, dst, d in form.cross:
        for a, b in spans[src]:
            for i in range(a, b):
                row = quiver.rows[i]
                for c, e in spans[dst]:
                    for j in range(c, e):
                        row[j] = row.get(j, 0) + d
    return quiver


def quiver_form_for_count(p: int, n: int, count: int) -> QuiverForm:
    """The closed-form quiver shape for a torus link with a known count.

    Dispatches on how the count relates to n; used both by predict_quiver
    and for comparing against computed counts in cells where the count
    formula itself is ambiguous.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    trivial = complete_form(n, n)
    if count == n:
        return trivial
    if count == p * n:
        # gcd(n, p) = p here, so the cross weight n/p is integral
        return join_form(trivial, complete_form((p - 1) * n, n // p), n // p)
    if count == 2 ** (p - 1) * n:
        # n is even in this regime
        blocks = disjoint_union(complete_form(n, n // 2), 2 ** (p - 1) - 1)
        return join_form(trivial, blocks, n // 2)
    if count == n**p:
        if not is_prime(n):
            raise ValueError(
                f"no closed-form quiver for count n^p with composite n = {n}"
            )
        m = (n**p - n) // (n * (n - 1))
        blocks = disjoint_union(complete_form(n * (n - 1), 1), m)
        return join_form(trivial, blocks, 1)
    raise ValueError(f"count {count} matches no closed-form quiver shape for (p={p}, n={n})")


def predict_quiver(p: int, q: int, n: int) -> QuiverForm:
    """Closed-form quiver of T(p, q) colored by R_n, when the count is settled."""
    prediction = predict_count(p, q, n)
    if prediction.ambiguous:
        raise AmbiguousCountError(
            f"count of T({p},{q}) by R_{n} is ambiguous "
            f"({' vs '.join(map(str, prediction.candidates))}); compute it and "
            "dispatch with quiver_form_for_count",
            candidates=prediction.candidates,
        )
    return quiver_form_for_count(p, n, prediction.n_colorings)


# --- isomorphism ---------------------------------------------------------


@dataclass
class IsoResult:
    """verdict True/False, or None when the node budget ran out first."""

    verdict: bool | None
    mapping: tuple[int, ...] | None
    expansions: int


def _joint_colors(quivers: list[WeightedQuiver]) -> list[list[int]]:
    """Iterated refinement by (loop, out-profile, in-profile), shared ordinals.

    Signatures are computed over all graphs together each round, so equal
    colors mean equal local structure across graphs.
    """
    outs = [q.rows for q in quivers]
    ins = [q.in_rows() for q in quivers]

    def initial(qi, v):
        loop = outs[qi][v].get(v, 0)
        out_profile = tuple(sorted(outs[qi][v].values()))
        in_profile = tuple(sorted(ins[qi][v].values()))
        return (loop, out_profile, in_profile)

    signatures = [
        [initial(qi, v) for v in range(q.n_vertices)] for qi, q in enumerate(quivers)
    ]
    colors = _canonicalize(signatures)
    n_colors = len(set(c for graph in colors for c in graph))
    while True:
        signatures = []
        for qi, q in enumerate(quivers):
            graph_colors = colors[qi]
            sigs = []
            for v in range(q.n_vertices):
                out_sig = tuple(
                    sorted((w, graph_colors[u]) for u, w in outs[qi][v].items())
                )
                in_sig = tuple(
                    sorted((w, graph_colors[u]) for u, w in ins[qi][v].items())
                )
                sigs.append((graph_colors[v], out_sig, in_sig))
            signatures.append(sigs)
        colors = _canonicalize(signatures)
        new_count = len(set(c for graph in colors for c in graph))
        if new_count == n_colors:
            return colors
        n_colors = new_count


def _canonicalize(signatures):
    ordering = {
        sig: i
        for i, sig in enumerate(sorted(set(s for graph in signatures for s in graph)))
    }
    return [[ordering[s] for s in graph] for graph in signatures]


def isomorphic(
    qa: WeightedQuiver, qb: WeightedQuiver, budget: int | None = None
) -> IsoResult:
    """Weight-preserving digraph isomorphism by refinement plus backtracking.

    Returns verdict True with a vertex mapping, False when refinement or
    exhausted search rules a bijection out, and None (undecided) when the
    expansion budget is hit first.
    """
    limit = iso_budget() if budget is None else budget
    if qa.n_vertices != qb.n_vertices:
        return IsoResult(False, None, 0)
    n = qa.n_vertices
    if n == 0:
        return IsoResult(True, (), 0)
    colors_a, colors_b = _joint_colors([qa, qb])
    from collections import Counter

    if Counter(colors_a) != Counter(colors_b):
        return IsoResult(False, None, 0)

    candidates: dict[int, list[int]] = {}
    for u, c in enumerate(colors_b):
        candidates.setdefault(c, []).append(u)
    class_size = Counter(colors_a)

    # order: smallest candidate classes first, preferring vertices adjacent
    # to already-ordered ones so weight constraints bind early
    ins_a = qa.in_rows()
    ins_b = qb.in_rows()
    order: list[int] = []
    placed = [False] * n
    frontier: set[int] = set()
    for _ in range(n):
        pool = frontier if frontier else set(v for v in range(n) if not placed[v])
        v = min(pool, key=lambda x: (class_size[colors_a[x]], colors_a[x], x))
        order.append(v)
        placed[v] = True
        frontier.discard(v)
        for u in qa.rows[v]:
            if not placed[u]:
                frontier.add(u)
        for u in ins_a[v]:
            if not placed[u]:
                frontier.add(u)

    mapping = [-1] * n
    inverse: dict[int, int] = {}
    used = [False] * n
    expansions = 0

    class _Budget(Exception):
        pass

    def feasible(v: int, u: int) -> bool:
        # arrows between v and every already-mapped vertex must match in
        # weight and existence, both directions; checking each side's
        # nonzero rows also rules out extra arrows on the other side
        for w, wt in qa.rows[v].items():
            mw = u if w == v else mapping[w]
            if mw >= 0 and qb.rows[u].get(mw, 0) != wt:
                return False
        for w, wt in qb.rows[u].items():
            src = v if w == u else inverse.get(w, -1)
            if src >= 0 and qa.rows[v].get(src, 0) != wt:
                return False
        for w, wt in ins_a[v].items():
            mw = u if w == v else mapping[w]
            if mw >= 0 and ins_b[u].get(mw, 0) != wt:
                return False
        for w, wt in ins_b[u].items():
            src = v if w == u else inverse.get(w, -1)
            if src >= 0 and ins_a[v].get(src, 0) != wt:
                return False
        return True

    def backtrack(k: int) -> bool:
        nonlocal expansions
        if k == n:
            return True
        v = order[k]
        for u in candidates[colors_a[v]]:
            if used[u]:
                continue
            expansions += 1
            if expansions > limit:
                raise _Budget()
            if feasible(v, u):
                mapping[v] = u
                used[u] = True
                inverse[u] = v
                if backtrack(k + 1):
                    return True
                mapping[v] = -1
                used[u] = False
                del inverse[u]
        return False

    try:
        found = backtrack(0)
    except _Budget:
        return IsoResult(None, None, expansions)
    if not found:
        return IsoResult(False, None, expansions)
    # re-verify the completed mapping edge by edge
    for v in range(n):
        row = qa.rows[v]
        mapped_row = qb.rows[mapping[v]]
        if len(row) != len(mapped_row):
            raise InternalConsistencyError("isomorphism verification failed")
        for w, wt in row.items():
            if mapped_row.get(mapping[w], 0) != wt:
                raise InternalConsistencyError("isomorphism verification failed")
    return IsoResult(True, tuple(mapping), expansions)


# --- block structure -----------------------------------------------------


@dataclass
class BlockDecomposition:
    """Partition into complete blocks with uniform internal and cross weights.

    blocks[i] is a sorted vertex list; weights[i] the internal weight
    (loop weight for singletons); cross[(i, j)] the uniform weight of
    arrows from every vertex of block i to every vertex of block j,
    nonzero entries only.
    """

    blocks: list[list[int]]
    weights: list[int]
    cross: dict[tuple[int, int], int]


def detect_blocks(quiver: WeightedQuiver) -> BlockDecomposition:
    """Group vertices into strongly-uniform weight classes.

    Vertices sharing a refinement color are merged along nonzero arrows,
    then every candidate block is checked for one uniform internal weight
    and uniform cross weights; any failure drops the decomposition to
    singletons, which is always valid.
    """
    n = quiver.n_vertices
    if n == 0:
        return BlockDecomposition([], [], {})
    colors = _joint_colors([quiver])[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i, row in enumerate(quiver.rows):
        for j, w in row.items():
            if w and i != j and colors[i] == colors[j]:
                union(i, j)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    blocks = sorted(groups.values())

    def uniform(block_i, block_j) -> int | None:
        values = {quiver.weight(i, j) for i in block_i for j in block_j}
        return values.pop() if len(values) == 1 else None

    weights = []
    ok = True
    for block in blocks:
        w = uniform(block, block)
        if w is None:
            ok = False
            break
        weights.append(w)
    cross: dict[tuple[int, int], int] = {}
    if ok:
        for bi, block_i in enumerate(blocks):
            for bj, block_j in enumerate(blocks):
                if bi == bj:
                    continue
                d = uniform(block_i, block_j)
                if d is None:
                    ok = False
                    break
                if d:
                    cross[(bi, bj)] = d
            if not ok:
                break
    if not ok:
        blocks = [[v] for v in range(n)]
        weights = [quiver.weight(v, v) for v in range(n)]
        cross = {}
        for i, row in enumerate(quiver.rows):
            for j, w in row.items():
                if w and i != j:
                    cross[(i, j)] = w
    return BlockDecomposition(blocks=blocks, weights=weights, cross=cross)
