"""Enumerating quandle colorings of braid closures, two independent ways.

The oracle backend tries every candidate top state and keeps those the
braid word maps back to themselves; it works for any finite quandle and
knows nothing about linearity.  The linear backend solves the closure
system (M - I) y = 0 mod n through the Smith normal form and is specific
to dihedral targets.  The two share nothing past the crossing convention,
which is what makes their agreement meaningful.
"""

from __future__ import annotations

import numpy as np

from .braids import BraidWord, closure_system, link_word
from .config import oracle_cap
from .errors import CapExceededError
from .linalg import kernel_count_from_snf, kernel_enumerate_mod, smith_normal_form
from .quandles import DihedralQuandle, FiniteQuandle

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"


def classify(coloring) -> str:
    """A coloring is trivial iff it colors every strand the same."""
    first = None
    for c in coloring:
        if first is None:
            first = c
        elif c != first:
            return NONTRIVIAL
    return TRIVIAL


class ColoringSet:
    """Colorings of one braid closure by one quandle, in canonical order.

    `colorings` is the lexicographically sorted list of top-state vectors,
    or None for a count-only result.  Distinct backends produce identical
    lists, so list equality is set equality.
    """

    def __init__(
        self,
        word: BraidWord,
        quandle: FiniteQuandle,
        count: int,
        colorings: list[tuple[int, ...]] | None,
    ):
        if colorings is not None and len(colorings) != count:
            raise ValueError(
                f"count {count} disagrees with list length {len(colorings)}"
            )
        self.word = word
        self.quandle = quandle
        self.count = count
        self.colorings = colorings

    @property
    def trivial_indices(self) -> list[int]:
        if self.colorings is None:
            raise ValueError("count-only result has no coloring list")
        return [i for i, c in enumerate(self.colorings) if classify(c) == TRIVIAL]

    @property
    def nontrivial_indices(self) -> list[int]:
        if self.colorings is None:
            raise ValueError("count-only result has no coloring list")
        return [i for i, c in enumerate(self.colorings) if classify(c) == NONTRIVIAL]

    def __repr__(self):
        kind = "count-only" if self.colorings is None else "full"
        return (
            f"ColoringSet({self.count} colorings of a {self.word.strands}-strand "
            f"closure by size-{self.quandle.size} quandle, {kind})"
        )


_SLAB = 1 << 16  # candidate rows propagated per batch


def enumerate_colorings_oracle(
    word: BraidWord,
    quandle: FiniteQuandle,
    cap: int | None = None,
    count_only: bool = False,
) -> ColoringSet:
    """Brute force: propagate every one of size**strands candidate tops.

    Candidates are generated in lexicographic order and filtered on
    bottom == top, so the surviving list is already sorted.
    """
    m = quandle.size
    p = word.strands
    total = m**p
    limit = oracle_cap() if cap is None else cap
    if total > limit:
        raise CapExceededError(
            f"{m}^{p} = {total} candidate tops exceed the oracle cap {limit}",
            count=total,
        )
    table = np.asarray(quandle.table, dtype=np.int64)
    inverse = (
        np.asarray(quandle.inverse_table, dtype=np.int64)
        if any(l < 0 for l in word.letters)
        else None
    )
    powers = [m ** (p - 1 - j) for j in range(p)]
    count = 0
    kept: list[np.ndarray] = []
    for start in range(0, total, _SLAB):
        ks = np.arange(start, min(start + _SLAB, total), dtype=np.int64)
        tops = np.empty((len(ks), p), dtype=np.int64)
        for j, power in enumerate(powers):
            tops[:, j] = (ks // power) % m
        state = tops.copy()
        for letter in word.letters:
            i = abs(letter) - 1
            x = state[:, i].copy()
            y = state[:, i + 1].copy()
            if letter > 0:
                state[:, i] = y
                state[:, i + 1] = table[x, y]
            else:
                state[:, i] = inverse[y, x]
                state[:, i + 1] = x
        mask = (state == tops).all(axis=1)
        count += int(mask.sum())
        if not count_only:
            kept.append(tops[mask])
    if count_only:
        return ColoringSet(word, quandle, count, None)
    rows = np.concatenate(kept) if kept else np.empty((0, p), dtype=np.int64)
    colorings = [tuple(row) for row in rows.tolist()]
    return ColoringSet(word, quandle, count, colorings)


def enumerate_colorings_linear(
    link,
    n: int,
    cap: int | None = None,
    count_only: bool = False,
) -> ColoringSet:
    """Solve the closure system (M - I) y = 0 mod n for a dihedral target.

    `link` is a TorusLinkSpec or any BraidWord.  If the solution count is
    above the enumeration cap the result is returned count-only, with the
    coloring list omitted.
    """
    word = link_word(link)
    system = closure_system(word)
    snf = smith_normal_form(system)
    count = kernel_count_from_snf(snf, n)
    quandle = DihedralQuandle(n)
    if count_only:
        return ColoringSet(word, quandle, count, None)
    try:
        vectors = kernel_enumerate_mod(system, n, cap=cap, snf=snf)
    except CapExceededError:
        return ColoringSet(word, quandle, count, None)
    return ColoringSet(word, quandle, count, vectors)
