"""Enumerating quandle colorings of braid closures, two independent ways.

The oracle backend pushes candidate top states through the braid word
and keeps those it maps back to themselves; it works for any finite
quandle and knows nothing about linearity.  The linear backend solves
the closure system (M - I) y = 0 mod n through the Smith normal form and
is specific to dihedral targets.  The two share nothing past the
crossing convention, which is what makes their agreement meaningful.

The oracle has one walk: top states through the link's factor
(braids.factor_power), slab by slab by the factor's window tables when
no power above 1 is asked for, and otherwise by its state map, built
once and squared across long gaps between powers, so a power q costs
about 2 * log2(q) passes over the map.  oracle_counts (the counts) and
enumerate_colorings_oracle (the colorings) both take it.  The counts
walk one top per orbit of the colour shift x -> x + 1 mod m, the tops
with strand 1 coloured 0, when that shift is an automorphism of the
Cayley table, and every top otherwise; the colorings always walk every
top.  Either enumerator returns its colorings as one read-only (count,
strands) int64 array, and raises CapExceededError, naming the count,
rather than return part of them over its cap.
"""

from __future__ import annotations

import numpy as np

from .braids import BraidWord, TorusLinkSpec, closure_system, factor_power
from .config import oracle_cap
from .errors import CapExceededError, count_text
from .linalg import kernel_enumerate_mod
from .quandles import DihedralQuandle, FiniteQuandle


class ColoringSet:
    """Colorings of one link by one quandle, in canonical order.

    `colorings` is a read-only int64 array with one row per coloring, its
    strands' colours, rows in lexicographic order.  Distinct backends
    produce identical arrays, so array equality is set equality.  A row
    whose width is not the link's strand count raises ValueError.
    """

    def __init__(self, link: BraidWord | TorusLinkSpec, quandle: FiniteQuandle, colorings):
        colorings = np.asarray(colorings, dtype=np.int64).view()
        strands = factor_power(link)[0].strands
        if colorings.ndim != 2 or colorings.shape[1] != strands:
            raise ValueError(f"coloring rows need {strands} colours, got {colorings.shape}")
        colorings.flags.writeable = False
        self.link = link
        self.quandle = quandle
        self.colorings = colorings

    @property
    def count(self) -> int:
        return len(self.colorings)

    @property
    def trivial_indices(self) -> np.ndarray:
        """The rows that colour every strand the same."""
        return np.flatnonzero((self.colorings == self.colorings[:, :1]).all(axis=1))

    def __repr__(self):
        return (
            f"ColoringSet({self.count} colorings of a {self.colorings.shape[1]}-strand "
            f"closure by size-{self.quandle.size} quandle)"
        )


_SLAB = 1 << 16  # state indices handled per batch
_WINDOW_STATES = 1 << 16  # largest window table: m**k entries
_SHIFT_ENTRIES = 1 << 16  # table entries compared per batch of the shift check


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


def _push(indices: np.ndarray, letters, m: int, strands: int, table, inverse) -> np.ndarray:
    """The indices of the states `letters` makes of the states with these indices.

    Letter by letter, one Cayley-table gather on the states' colour
    columns; only the table (and, for negative letters, its inverse) is
    consulted.
    """
    columns = _digits(indices, m, strands, table.dtype)
    for letter in letters:
        i = abs(letter) - 1
        x, y = columns[i], columns[i + 1]
        if letter > 0:
            columns[i], columns[i + 1] = y, table[x, y]
        else:
            columns[i], columns[i + 1] = inverse[y, x], x
    states = columns[0].astype(indices.dtype)
    for column in columns[1:]:
        states *= m
        states += column
    return states


def _cover(factor: tuple[int, ...], k: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The factor cut, in word order, into maximal runs of letters that stay
    inside k adjacent strands: (first strand from 0, strands spanned, letters)
    per run.
    """
    cover = []
    for letter in factor:
        i = abs(letter) - 1
        if cover:
            lo, width, letters = cover[-1]
            first, last = min(lo, i), max(lo + width, i + 2)
            if last - first <= k:
                cover[-1] = (first, last - first, letters + (letter,))
                continue
        cover.append((i, 2, (letter,)))
    return cover


def _windows(factor: tuple[int, ...], strands: int, m: int):
    """(k, cover of the factor by k-strand windows) for the widest k <= strands
    with m**k <= _WINDOW_STATES whose tables hold at most m**strands / 4
    entries in all; k = 2 when no width fits.
    """
    k = strands
    while k > 2 and m**k > _WINDOW_STATES:
        k -= 1
    for k in range(k, 1, -1):
        cover = _cover(factor, k)
        if k == 2 or 4 * sum(m**width for _, width, _ in cover) <= m**strands:
            return k, cover


def _window_steps(factor: tuple[int, ...], strands: int, quandle: FiniteQuandle, index):
    """One (place value, digit modulus or None, delta table) per window.

    A window on strands lo..lo+width-1 reads its digits as
    s // base % m**width of a state index s, and moves s to
    s + delta[digits]: the delta is the window's bottom digits minus its
    top digits, times the place value base.  The modulus is None for a
    window on strand 1, whose digits are the leading ones.  Runs with the
    same strands and letters share one table.
    """
    m = quandle.size
    colour = np.min_scalar_type(m - 1)
    table = quandle.table.astype(colour)
    inverse = quandle.inverse_table.astype(colour) if any(l < 0 for l in factor) else None
    steps = []
    tables: dict[tuple, np.ndarray] = {}
    for lo, width, letters in _windows(factor, strands, m)[1]:
        base = m ** (strands - lo - width)
        shifted = tuple(l - lo if l > 0 else l + lo for l in letters)
        size = m**width
        delta = tables.get((lo, width, shifted))
        if delta is None:
            delta = np.empty(size, dtype=index)
            for start in range(0, size, _SLAB):
                tops = np.arange(start, min(start + _SLAB, size), dtype=index)
                delta[start : start + len(tops)] = _push(tops, shifted, m, width, table, inverse) - tops
            delta *= base
            tables[lo, width, shifted] = delta
        steps.append((base, size if lo else None, delta))
    return steps


def _window_push(factor: tuple[int, ...], strands: int, quandle: FiniteQuandle, index):
    """The factor as a step on slabs of state indices: push(states, out) writes
    the bottom-state indices of the top states `states` into `out`.

    The factor is compiled into window tables once; each slab then takes
    one gather per window on its index array.
    """
    steps = _window_steps(factor, strands, quandle, index)
    buffers = np.empty((2, min(_SLAB, quandle.size**strands)), dtype=index)

    def push(states: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.copyto(out, states)
        digits, scratch = buffers[:, : len(states)]
        for base, modulus, delta in steps:
            # s // base % modulus as s // base - s // (base * modulus) * modulus:
            # numpy divides by a scalar fast, but takes a remainder slowly
            np.floor_divide(out, base, out=digits)
            if modulus:
                np.floor_divide(out, base * modulus, out=scratch)
                scratch *= modulus
                digits -= scratch
            # digits are in range by construction; "clip" lets take write
            # into scratch without buffering it
            np.take(delta, digits, out=scratch, mode="clip")
            out += scratch
        return out

    return push


def _factor_map(factor: tuple[int, ...], strands: int, quandle: FiniteQuandle) -> np.ndarray:
    """The factor's state map: map[k] is the bottom-state index of top-state index k."""
    total = quandle.size**strands
    index = _index_type(total)
    push = _window_push(factor, strands, quandle, index)
    state_map = np.empty(total, dtype=index)
    for start in range(0, total, _SLAB):
        stop = min(start + _SLAB, total)
        push(np.arange(start, stop, dtype=index), state_map[start:stop])
    return state_map


def _shift_orbit(quandle: FiniteQuandle) -> int:
    """m when the shift x -> x + 1 mod m is an automorphism of the table, else 1.

    Checks table[x + 1, y + 1] == table[x, y] + 1 mod m for every (x, y), a
    batch of rows at a time, so the check holds a few copies of one batch,
    never of the whole table.
    """
    m, table = quandle.size, quandle.table
    shift = np.roll(np.arange(m), -1)  # shift[x] = x + 1 mod m
    step = max(1, _SHIFT_ENTRIES // m)
    for start in range(0, m, step):
        # table[x + 1, y + 1] against table[x, y] + 1 for a batch of x
        rows = shift[start : start + step]
        if not np.array_equal(table[rows][:, shift], shift[table[start : start + step]]):
            return 1
    return m


def _gather(table: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = table[indices[i]] by slabs: take copies int32 indices to intp."""
    for start in range(0, len(indices), _SLAB):
        # in range by construction; "clip" lets take write into out unbuffered
        np.take(table, indices[start : start + _SLAB], out=out[start : start + _SLAB], mode="clip")
    return out


def _power_slabs(factor: tuple[int, ...], strands: int, quandle: FiniteQuandle, powers, stop: int):
    """(power, tops, bottoms) slab by slab over the tops 0..stop-1 for each
    power in ascending order, the bottoms being the tops under factor**power.

    With no power above 1 each slab is pushed through the window tables,
    and no map is held; power 0 takes no step.  Otherwise the factor's
    state map over all m**strands states is built once, and all tops cross
    each gap between powers together: a gather while the gap is odd or at
    most states / tops, else a squaring of the map halves it, so a gap g
    takes about log2(g) squarings.  Read each slab before the next item.
    """
    powers = sorted(set(powers))
    index = _index_type(quandle.size**strands)
    if max(powers, default=0) < 2:
        push = _window_push(factor, strands, quandle, index) if 1 in powers else None
        buffer = np.empty(min(_SLAB, stop), dtype=index)
        for start in range(0, stop, _SLAB):
            tops = np.arange(start, min(start + _SLAB, stop), dtype=index)
            for power in powers:
                yield power, tops, push(tops, buffer[: len(tops)]) if power else tops
        return
    state_map = _factor_map(factor, strands, quandle)
    bottoms, spare = np.arange(stop, dtype=index), np.empty(stop, dtype=index)
    for walked, power in zip([0] + powers, powers):
        gap, square = power - walked, state_map
        while gap:
            if gap % 2 or gap * stop <= len(square):
                bottoms, spare = _gather(square, bottoms, spare), bottoms
                gap -= 1
            else:
                square = _gather(square, square, np.empty_like(square))
                gap //= 2
        for start in range(0, stop, _SLAB):
            tops = np.arange(start, min(start + _SLAB, stop), dtype=index)
            yield power, tops, bottoms[start : start + _SLAB]


def check_oracle_cap(m: int, strands: int, cap: int | None):
    """Raise CapExceededError when m**strands candidate tops exceed the cap."""
    total, power = m**strands, f"{m}^{strands}"
    limit = oracle_cap() if cap is None else cap
    if total > limit:
        raise CapExceededError(
            f"{count_text(total, power)} candidate tops exceed the oracle cap {limit}",
            count=total,
            power=power,
        )


def oracle_counts(link, quandle: FiniteQuandle, powers, cap: int | None = None) -> dict[int, int]:
    """{k: number of colorings of the closure of link**k} for each k in `powers`.

    The one oracle count: the link is read as factor**r (factor_power),
    and one walk counts the fixed points of factor**(r*k) for every k at
    once; power 0 fixes every top.  The cap, on all m**strands candidate
    tops, is checked before any table or map is built.

    When the shift x -> x + 1 mod m is an automorphism of the table, the
    walk takes only the m**(strands - 1) tops with strand 1 coloured 0 and
    multiplies each count by m.  Crossings read only the table and its
    inverse, so shifting every strand's colour commutes with the word;
    the fixed tops of each power are closed under the shift, and each of
    its orbits holds m tops, one with strand 1 coloured 0.
    """
    factor, r = factor_power(link)
    m, strands = quandle.size, factor.strands
    check_oracle_cap(m, strands, cap)
    orbit = _shift_orbit(quandle)
    fixed = dict.fromkeys((r * k for k in powers), 0)
    for power, tops, bottoms in _power_slabs(factor.letters, strands, quandle, fixed, m**strands // orbit):
        fixed[power] += int(np.count_nonzero(bottoms == tops))
    return {k: orbit * fixed[r * k] for k in powers}


def enumerate_colorings_oracle(link, quandle: FiniteQuandle, cap: int | None = None) -> ColoringSet:
    """Brute force over all size**strands candidate tops, unreduced.

    The link is read as factor**q, and a top is a coloring iff factor**q
    fixes it; the slabs come from the same walk oracle_counts takes, but
    over every top, whatever the table's automorphisms, so each coloring
    is found by propagation itself.  Fixed indices are found in
    increasing order, which is lexicographic order of the tops, so the
    rows are already sorted.
    """
    factor, q = factor_power(link)
    m, strands = quandle.size, factor.strands
    check_oracle_cap(m, strands, cap)
    slabs = _power_slabs(factor.letters, strands, quandle, [q], m**strands)
    kept = [tops[bottoms == tops] for _, tops, bottoms in slabs]
    rows = np.stack(_digits(np.concatenate(kept), m, strands, np.int64), axis=1)
    return ColoringSet(link, quandle, rows)


def enumerate_colorings_linear(link, n: int, cap: int | None = None) -> ColoringSet:
    """Solve the closure system (M**q - I) y = 0 mod n for a dihedral target.

    `link` is a TorusLinkSpec or any BraidWord.  Raises CapExceededError,
    naming the solution count, when that count is above the enumeration
    cap.
    """
    kernel = kernel_enumerate_mod(closure_system(link, n), n, cap=cap)
    return ColoringSet(link, DihedralQuandle(n), kernel)
