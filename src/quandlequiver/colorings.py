"""Quandle colorings of braid closures, found two independent ways.

The oracle backend pushes candidate top states through the braid word by
R_r's Cayley table and counts those it maps back to themselves; it knows
nothing about linearity.  The linear backend solves the closure system
(M - I) y = 0 mod n through the Smith normal form.  The two share
nothing past the crossing convention, which is what makes their
agreement meaningful.

The oracle has one walk: top states through a factor of the link
(braids.factor_power), slab by slab by the factor's window tables when
no power above 1 is asked for, and otherwise by its state map, built
once and squared across long gaps between powers, so a power q costs
about 2 * log2(q) passes over the map; fewer than _PUSH_STATES states
go letter by letter instead.  oracle_counts, the oracle's one entry,
takes it for R_r, walking one top per orbit of R_r's automorphisms
x -> a*x + b: for r = l**k a prime power, the tops with strand 1
coloured 0 whose colours are all multiples of l, and one per orbit of
the unit scalings among the rest; for any other r, every top with
strand 1 coloured 0.  Its caller checks the oracle cap first
(check_oracle_cap).  The linear backend lists the colorings, as one
read-only (count, strands) int64 array, and raises CapExceededError,
naming the count, rather than return part of its answer over its cap.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .braids import BraidWord, TorusLinkSpec, closure_system
from .config import oracle_cap
from .errors import SHORT_COUNT, CapExceededError, count_text
from .linalg import kernel_enumerate_mod, row_keys


class ColoringSet:
    """Colorings of one link by R_n, in canonical order.

    `n` is the modulus, at least 1.  `colorings` is a read-only int64
    array with one row per coloring, its strands' colours, rows in
    lexicographic order, so array equality is set equality.  `keys` holds
    each row read as a base-n number (`row_keys`), read-only and strictly
    increasing, which `quotient` looks rows up by for the quiver layer; a
    caller that has them already (linalg.kernel_enumerate_mod) passes them
    in.  A modulus below 1, a row whose width is not the link's strand
    count, a colour outside 0..n-1, or rows that are not sorted and
    distinct raise ValueError.
    """

    def __init__(self, link: BraidWord | TorusLinkSpec, n: int, colorings, keys=None):
        if n < 1:
            raise ValueError(f"modulus must be at least 1, got {n}")
        colorings = np.asarray(colorings, dtype=np.int64).view()
        strands = link.p if isinstance(link, TorusLinkSpec) else link.strands
        if colorings.ndim != 2 or colorings.shape[1] != strands:
            raise ValueError(f"coloring rows need {strands} colours, got {colorings.shape}")
        if np.any((colorings < 0) | (colorings >= n)):
            raise ValueError(f"colours must lie in 0..{n - 1}")
        keys = row_keys(colorings, n) if keys is None else keys.view()
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("colorings must be sorted and distinct")
        colorings.flags.writeable = keys.flags.writeable = False
        self.link = link
        self.n = n
        self.colorings = colorings
        self.keys = keys

    @property
    def count(self) -> int:
        return len(self.colorings)

    @property
    def trivial_indices(self) -> np.ndarray:
        """The rows that colour every strand the same."""
        return np.flatnonzero((self.colorings == self.colorings[:, :1]).all(axis=1))

    @functools.cached_property
    def quotient(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(translate, class_of, scaled): the colorings as K0 + Delta, in
        three read-only int64 tables made at the first read.

        K0 is the first rows, those colouring strand 1 with 0, and Delta the
        trivial colorings, so each coloring is c0 + t*1 for one class c0 in
        K0 and one shift t.  translate[s, c] is the position of K0[c] + s*1,
        class_of[v] the class of coloring v, and scaled[a, c] the position
        in K0 of a*K0[c].  A set the maps x -> a*x + b mod n do not keep
        raises ValueError, naming a coloring, a map (a, b) and the image
        that is not a coloring.
        """
        n, colorings, keys = self.n, self.colorings, self.keys
        group = colorings[: np.searchsorted(colorings[:, 0], 1)]
        shifts = np.arange(n)[:, None, None]
        translate = _positions(keys, (group + shifts) % n, n)
        if np.any(translate < 0):
            s, c = np.argwhere(translate < 0)[0]
            raise _not_closed(group[c], 1, s, n)
        class_of = np.full(len(colorings), -1)
        class_of[translate] = np.arange(len(group))
        if np.any(class_of < 0):
            # no translate of K0 reaches v, so v - v_1*1 is no coloring
            v = colorings[np.argmax(class_of < 0)]
            raise _not_closed(v, 1, -v[0] % n, n)
        scaled = _positions(keys[: len(group)], shifts * group % n, n)
        if np.any(scaled < 0):
            a, c = np.argwhere(scaled < 0)[0]
            raise _not_closed(group[c], a, 0, n)
        for table in (translate, class_of, scaled):
            table.flags.writeable = False
        return translate, class_of, scaled

    def __repr__(self):
        return (
            f"ColoringSet({self.count} colorings of a {self.colorings.shape[1]}-strand "
            f"closure by R_{self.n})"
        )


def _positions(keys: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """Each of `rows`' position among the rows of sorted base-m keys `keys`, or -1."""
    wanted = row_keys(rows, m)
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return np.where(keys[at] == wanted, at, -1)


def _not_closed(coloring: np.ndarray, a: int, b: int, n: int) -> ValueError:
    image = (a * coloring + b) % n
    return ValueError(
        f"image {tuple(image.tolist())} of coloring {tuple(coloring.tolist())} "
        f"under x -> {a}*x + {b} mod {n} is not itself a coloring"
    )


_SLAB = 1 << 16  # state indices handled per batch
_WINDOW_STATES = 1 << 16  # largest window table: m**k entries
# fewer states pushed than this go letter by letter: on 36-letter words the
# window tables (k = 2 at these sizes, about 30 tables) cost more than they
# save below about 2**11 states, and break even near it
_PUSH_STATES = 1 << 11


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


def _push(indices: np.ndarray, letters, m: int, strands: int, table) -> np.ndarray:
    """The indices of the states `letters` makes of the states with these indices.

    Letter by letter, one gather of R_m's Cayley table on the states'
    colour columns.  R_m is involutive, (z * y) * y = z, so a negative
    letter's inverse operation reads the table itself.
    """
    columns = _digits(indices, m, strands, table.dtype)
    for letter in letters:
        i = abs(letter) - 1
        x, y = columns[i], columns[i + 1]
        if letter > 0:
            columns[i], columns[i + 1] = y, table[x, y]
        else:
            columns[i], columns[i + 1] = table[y, x], x
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


def _windows(factor: tuple[int, ...], strands: int, m: int, states: int):
    """(k, cover of the factor by k-strand windows) for the widest k <= strands
    with m**k <= _WINDOW_STATES whose tables hold at most states / 4 entries
    in all, `states` being the number of states pushed through them; k = 2
    when no width fits, and k = 1 for the empty factor on one strand.
    """
    k = strands
    while k > 2 and m**k > _WINDOW_STATES:
        k -= 1
    for k in range(k, 0, -1):
        cover = _cover(factor, k)
        if k <= 2 or 4 * sum(m**width for _, width, _ in cover) <= states:
            return k, cover


def _window_steps(factor: tuple[int, ...], strands: int, table: np.ndarray, index, states: int):
    """One (place value, digit modulus or None, delta table) per window, the
    windows sized for `states` states pushed (_windows).

    A window on strands lo..lo+width-1 reads its digits as
    s // base % m**width of a state index s, and moves s to
    s + delta[digits]: the delta is the window's bottom digits minus its
    top digits, times the place value base.  The modulus is None for a
    window on strand 1, whose digits are the leading ones.  Runs with the
    same strands and letters share one table.
    """
    m = len(table)
    steps = []
    tables: dict[tuple, np.ndarray] = {}
    for lo, width, letters in _windows(factor, strands, m, states)[1]:
        base = m ** (strands - lo - width)
        shifted = tuple(l - lo if l > 0 else l + lo for l in letters)
        size = m**width
        delta = tables.get((lo, width, shifted))
        if delta is None:
            delta = np.empty(size, dtype=index)
            for start in range(0, size, _SLAB):
                tops = np.arange(start, min(start + _SLAB, size), dtype=index)
                delta[start : start + len(tops)] = _push(tops, shifted, m, width, table) - tops
            delta *= base
            tables[lo, width, shifted] = delta
        steps.append((base, size if lo else None, delta))
    return steps


def _window_push(factor: tuple[int, ...], strands: int, table: np.ndarray, index, total: int):
    """The factor as a step on slabs of state indices: push(states, out) writes
    the bottom-state indices of the top states `states` into `out`.

    The factor is compiled into window tables once, sized for `total`
    states pushed in all; each slab then takes one gather per window on
    its index array.  Fewer than _PUSH_STATES states in all go letter by
    letter through _push instead, as so few cannot pay for the tables.
    """
    if total < _PUSH_STATES:

        def push(states: np.ndarray, out: np.ndarray) -> np.ndarray:
            np.copyto(out, _push(states, factor, len(table), strands, table))
            return out

        return push
    steps = _window_steps(factor, strands, table, index, total)
    buffers = np.empty((2, min(_SLAB, total)), dtype=index)

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


def _factor_map(factor: tuple[int, ...], strands: int, table: np.ndarray) -> np.ndarray:
    """The factor's state map: map[k] is the bottom-state index of top-state index k."""
    total = len(table) ** strands
    index = _index_type(total)
    push = _window_push(factor, strands, table, index, total)
    state_map = np.empty(total, dtype=index)
    for start in range(0, total, _SLAB):
        stop = min(start + _SLAB, total)
        push(np.arange(start, stop, dtype=index), state_map[start:stop])
    return state_map


def _gather(table: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = table[indices[i]] by slabs: take copies int32 indices to intp."""
    for start in range(0, len(indices), _SLAB):
        # in range by construction; "clip" lets take write into out unbuffered
        np.take(table, indices[start : start + _SLAB], out=out[start : start + _SLAB], mode="clip")
    return out


def _power_slabs(factor: tuple[int, ...], strands: int, table: np.ndarray, powers, count: int, slabs):
    """(power, tag, tops, bottoms) slab by slab for each power in ascending
    order, the bottoms being the tops under factor**power.

    `slabs` yields (tag, tops), `count` tops in all, each slab an index
    array in the walk's dtype; its tag is handed back with it.  With no
    power above 1 each slab is pushed as it comes through window tables
    sized for the `count` tops walked, and no map is held; power 0 takes
    no step.  Otherwise the factor's state map over all m**strands states
    is built once, and all tops cross each gap between powers together: a
    gather while the gap is odd or at most states / tops, else a squaring
    of the map halves it, so a gap g takes about log2(g) squarings.  Read
    each slab before the next item.
    """
    powers = sorted(set(powers))
    index = _index_type(len(table) ** strands)
    if max(powers, default=0) < 2:
        push = _window_push(factor, strands, table, index, count) if 1 in powers else None
        buffer = np.empty(min(_SLAB, count), dtype=index)
        for tag, tops in slabs:
            for power in powers:
                yield power, tag, tops, push(tops, buffer[: len(tops)]) if power else tops
        return
    state_map = _factor_map(factor, strands, table)
    tops, tags, start = np.empty(count, dtype=index), [], 0
    for tag, slab in slabs:
        tops[start : start + len(slab)] = slab
        tags.append((tag, start, start + len(slab)))
        start += len(slab)
    bottoms, spare = tops.copy(), np.empty_like(tops)
    for walked, power in zip([0] + powers, powers):
        gap, square = power - walked, state_map
        while gap:
            if gap % 2 or gap * count <= len(square):
                bottoms, spare = _gather(square, bottoms, spare), bottoms
                gap -= 1
            else:
                square = _gather(square, square, np.empty_like(square))
                gap //= 2
        for tag, start, stop in tags:
            yield power, tag, tops[start:stop], bottoms[start:stop]


def _prime_of(r: int) -> int | None:
    """The prime l with r a power of l, or None when r is 1 or has two primes."""
    if r < 2:
        return None
    ell = next((d for d in range(2, math.isqrt(r) + 1) if r % d == 0), r)
    while r % ell == 0:
        r //= ell
    return ell if r == 1 else None


def _digit_sets(r: int, ell: int, digits: int, index) -> tuple[np.ndarray, np.ndarray]:
    """(multiples, firsts): the ascending base-r numbers of `digits` digits,
    in dtype `index`, whose digits are all multiples of ell, and those whose
    first digit prime to ell is 1.

    Each set is built by its leading digit c: multiples from c = 0, ell,
    2*ell, ... before the multiples one digit shorter; firsts from the
    shorter firsts behind c = 0, then every number led by c = 1, then the
    shorter firsts behind c = ell, 2*ell, ...
    """
    multiples, firsts = np.zeros(1, dtype=index), np.zeros(0, dtype=index)
    for place in (r**j for j in range(digits)):
        leads = np.arange(0, r, ell, dtype=index)[:, None] * place
        firsts = np.concatenate(
            [firsts, np.arange(place, 2 * place, dtype=index), (leads[1:] + firsts).ravel()]
        )
        multiples = (leads + multiples).ravel()
    return multiples, firsts


def _orbit_tops(r: int, strands: int, index):
    """(units, count, slabs): the `count` tops the oracle walks on R_r,
    slab by slab as (lead, tops), tops an index array in dtype `index`
    whose first `lead` entries every unit scaling x -> a*x fixes, while
    each later one stands for its orbit of `units` tops.

    Every top colours strand 1 with 0.  For r a power of the prime l
    (_prime_of), these are the tops whose colours are all multiples of l,
    and among the rest, whose orbits under the phi(r) = `units` scalings
    are free, the one per orbit whose first colour prime to l is 1:
    (r/l)**(s-1) + (r**(s-1) - (r/l)**(s-1)) / phi(r) tops on s strands.
    The colours split into leading and trailing ones, the trailing ones
    spanning at most _SLAB tops (_digit_sets gives both sets of each), and
    each slab is one leading block: all of it when its first colour prime
    to l is 1, else, for leading multiples of l, the trailing multiples
    then the trailing representatives.  For any other r, the tops are
    every one with strand 1 coloured 0, in _SLAB-top slabs, and none is
    scaled (units 1).
    """
    digits = strands - 1
    ell = _prime_of(r)
    if ell is None:
        total = r**digits
        ranges = (np.arange(start, min(start + _SLAB, total), dtype=index) for start in range(0, total, _SLAB))
        return 1, total, ((len(tops), tops) for tops in ranges)
    low = digits
    while low and r**low > _SLAB:
        low -= 1
    size = r**low
    multiples, firsts = _digit_sets(r, ell, low, index)
    trailing = np.concatenate([multiples, firsts])
    high_multiples, high_firsts = _digit_sets(r, ell, digits - low, index)
    leading = sorted(
        [(lead, True) for lead in high_multiples.tolist()] + [(lead, False) for lead in high_firsts.tolist()]
    )
    units = r - r // ell
    fixed = (r // ell) ** digits
    count = fixed + (r**digits - fixed) // units

    def slabs():
        for lead, multiple in leading:
            if multiple:
                yield len(multiples), trailing + lead * size
            else:
                yield 0, np.arange(lead * size, (lead + 1) * size, dtype=index)

    return units, count, slabs()


def _dihedral_table(r: int) -> np.ndarray:
    """R_r's Cayley table, table[x, y] = x * y = 2y - x mod r, read-only in
    the smallest dtype that holds r - 1; made in int64, as 2y - x would
    wrap in that dtype."""
    x = np.arange(r)
    table = ((2 * x - x[:, None]) % r).astype(np.min_scalar_type(r - 1))
    table.flags.writeable = False
    return table


def over_oracle_cap(m: int, strands: int, limit: int) -> bool:
    """Whether m**strands candidate tops exceed `limit`.

    For m >= 2 the power is at least 2**strands, so a strand count past
    the limit's bit length is over it, told without building the power."""
    return m >= 2 and strands > limit.bit_length() or m**strands > limit


def check_oracle_cap(m: int, strands: int, cap: int | None):
    """Raise CapExceededError when m**strands candidate tops exceed the cap
    (over_oracle_cap).

    A strand count past the bit length of SHORT_COUNT as well is named by
    its power alone, without building it (count None)."""
    limit = oracle_cap() if cap is None else cap
    if over_oracle_cap(m, strands, limit):
        power = f"{m}^{strands}"
        huge = m >= 2 and strands > max(limit.bit_length(), SHORT_COUNT.bit_length())
        total = None if huge else m**strands
        raise CapExceededError(
            f"{count_text(total, power)} candidate tops exceed the oracle cap {limit}",
            count=total,
            power=power,
        )


def oracle_counts(factor: BraidWord, r: int, powers) -> dict[int, int]:
    """{k: number of colorings of the closure of factor**k by R_r} for each k in `powers`.

    The one oracle count: one walk counts the fixed points of factor**k
    for every k at once; power 0 fixes every top.  The caller checks the
    oracle cap first (counting.evaluate_cells, on all candidate tops).

    The walk takes only tops with strand 1 coloured 0 and multiplies
    each count by r.  The shift x -> x + 1 mod r is an automorphism of
    R_r, as (x + 1) * (y + 1) = 2y - x + 1, and a crossing reads only the
    table, so shifting every strand's colour commutes with the word; the
    fixed tops of each power are closed under the shift, and each of its
    orbits holds r tops, one with strand 1 coloured 0.  For r = l**k a
    prime power the unit scalings x -> a*x (a prime to l) are
    automorphisms too, as a(2y - x) = 2(ay) - ax, and keep strand 1 at 0.
    They commute with every crossing as the shift does, and move every
    top with a colour prime to l freely, so among those the walk takes
    the one per orbit whose first such colour is 1 and counts it phi(r)
    times; the tops whose colours are all multiples of l are walked all
    and counted once (_orbit_tops).  So each power counts r * (fixed
    multiples + phi(r) * fixed representatives).
    """
    strands = factor.strands
    table = _dihedral_table(r)
    units, count, slabs = _orbit_tops(r, strands, _index_type(r**strands))
    fixed = dict.fromkeys(powers, 0)
    for power, lead, tops, bottoms in _power_slabs(factor.letters, strands, table, fixed, count, slabs):
        hits = bottoms == tops
        fixed[power] += int(np.count_nonzero(hits[:lead])) + units * int(np.count_nonzero(hits[lead:]))
    return {k: r * fixed[k] for k in powers}


def enumerate_colorings_linear(link, n: int, cap: int | None = None) -> ColoringSet:
    """Solve the closure system (M**q - I) y = 0 mod n for a dihedral target.

    `link` is a TorusLinkSpec or any BraidWord.  Raises CapExceededError,
    naming the solution count, when that count is above the enumeration
    cap.
    """
    kernel, keys = kernel_enumerate_mod(closure_system(link, n), n, cap=cap)
    return ColoringSet(link, n, kernel, keys)
