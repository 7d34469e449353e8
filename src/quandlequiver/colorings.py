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


_SLAB = 1 << 16  # state indices handled per batch

# State maps of one periodic factor, ((factor, strands), table) -> map: the
# rows of a sweep share a factor across q, so one factor's maps (4 bytes
# per state) are kept and replaced when the factor changes.
_state_maps: dict[tuple, np.ndarray] = {}


def _factor_power(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(factor, q) with letters == factor * q and the factor shortest; q = 0 for ()."""
    length = len(letters)
    for d in range(1, length + 1):
        if length % d == 0 and letters[:d] * (length // d) == letters:
            return letters[:d], length // d
    return (), 0


def _index_type(total: int):
    return np.int32 if total < 2**31 else np.int64


def _digits(indices: np.ndarray, m: int, strands: int, dtype) -> list[np.ndarray]:
    """The colours of the states with these indices, one column per strand.

    A state's index reads its colours as base-m digits, strand 1 first, so
    index order is lexicographic order.
    """
    columns = [None] * strands
    for j in reversed(range(strands)):
        columns[j] = (indices % m).astype(dtype)
        indices = indices // m
    return columns


def _state_map(factor: tuple[int, ...], strands: int, quandle: FiniteQuandle) -> np.ndarray:
    """map[k]: the bottom-state index of top-state index k under `factor`.

    Only the Cayley table (and, for negative letters, its inverse) is
    consulted.
    """
    m = quandle.size
    total = m**strands
    colour = np.min_scalar_type(m - 1)
    table = np.asarray(quandle.table, dtype=colour)
    inverse = (
        np.asarray(quandle.inverse_table, dtype=colour)
        if any(l < 0 for l in factor)
        else None
    )
    out = np.empty(total, dtype=_index_type(total))
    for start in range(0, total, _SLAB):
        tops = np.arange(start, min(start + _SLAB, total), dtype=out.dtype)
        columns = _digits(tops, m, strands, colour)
        for letter in factor:
            i = abs(letter) - 1
            x, y = columns[i], columns[i + 1]
            if letter > 0:
                columns[i], columns[i + 1] = y, table[x, y]
            else:
                columns[i], columns[i + 1] = inverse[y, x], x
        bottoms = out[start : start + len(tops)]
        bottoms[:] = columns[0]
        for column in columns[1:]:
            bottoms *= m
            bottoms += column
    out.flags.writeable = False
    return out


def _factor_map(factor: tuple[int, ...], strands: int, quandle: FiniteQuandle, q: int) -> np.ndarray:
    """The factor's state map, from `_state_maps` if there.

    A new map is kept only for q >= 2: the map of an aperiodic word is
    seldom needed again and would only hold memory.
    """
    key = ((factor, strands), quandle.table)
    found = _state_maps.get(key)
    if found is not None:
        return found
    state_map = _state_map(factor, strands, quandle)
    if q >= 2:
        if _state_maps and next(iter(_state_maps))[0] != key[0]:
            _state_maps.clear()
        _state_maps[key] = state_map
    return state_map


def enumerate_colorings_oracle(
    word: BraidWord,
    quandle: FiniteQuandle,
    cap: int | None = None,
    count_only: bool = False,
) -> ColoringSet:
    """Brute force over all size**strands candidate tops.

    The word is written as factor**q; the factor's state map is built by
    pushing every top state through its letters, and a top is a coloring
    iff the q-th power of that map fixes it.  Fixed indices are found in
    increasing order, which is lexicographic order of the tops, so the
    list is already sorted.
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
    factor, q = _factor_power(word.letters)
    state_map = _factor_map(factor, p, quandle, q) if q else None
    index = _index_type(total)
    count = 0
    kept: list[np.ndarray] = []
    for start in range(0, total, _SLAB):
        tops = np.arange(start, min(start + _SLAB, total), dtype=index)
        bottoms = tops
        for _ in range(q):
            bottoms = state_map[bottoms]
        fixed = bottoms == tops
        if count_only:
            count += int(np.count_nonzero(fixed))
        else:
            kept.append(tops[fixed])
    if count_only:
        return ColoringSet(word, quandle, count, None)
    rows = np.stack(_digits(np.concatenate(kept), m, p, np.int64), axis=1)
    colorings = [tuple(row) for row in rows.tolist()]
    return ColoringSet(word, quandle, len(colorings), colorings)


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
