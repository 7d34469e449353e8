"""Reference oracle used by the tests: every candidate top through every letter.

The package's oracle walks the tops with strand 1 coloured 0 through the
window tables (or the state map) of the link's factor and multiplies by
the shift orbit's size r, which holds because x -> x + 1 is an
automorphism of R_r; this is the direct per-letter propagation over
every top, by any Cayley table, that it must agree with.  A negative
letter reads the inverse operation, which `right_inverse` derives from
the table itself.  The tables come from the caller (for R_n,
`quandle_reference.dihedral`), never from the package.  `coloring_set`
holds the colorings by R_n in the package's ColoringSet, for tests that
compare them with the linear backend's or build a quiver on them.
`propagate` pushes one top state through the word, crossing by crossing.
"""

import numpy as np

from quandlequiver.colorings import ColoringSet

_SLAB = 1 << 16  # candidate rows propagated per batch


def right_inverse(table) -> np.ndarray:
    """inverse[x, y], the unique z with z * y == x; a column of the table
    that is not a permutation raises ValueError."""
    table = np.asarray(table)
    m = len(table)
    broken = np.flatnonzero((np.sort(table, axis=0) != np.arange(m)[:, None]).any(axis=0))
    if broken.size:
        raise ValueError(f"right translation by {broken[0]} is not a bijection")
    inverse = np.empty_like(table)
    inverse[table, np.arange(m)] = np.arange(m)[:, None]
    return inverse


def enumerate_colorings(word, quandle) -> list[tuple[int, ...]]:
    """The lexicographically sorted tops that `word` maps back to themselves."""
    m = quandle.size
    p = word.strands
    total = m**p
    table = quandle.table
    inverse = right_inverse(table) if any(l < 0 for l in word.letters) else None
    powers = [m ** (p - 1 - j) for j in range(p)]
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
        kept.append(tops[(state == tops).all(axis=1)])
    return [tuple(row) for row in np.concatenate(kept).tolist()]


def coloring_set(word, quandle) -> ColoringSet:
    """enumerate_colorings by R_n's table as a ColoringSet by R_n, n the
    table's size; (0, strands) rows when no top is fixed."""
    rows = np.array(enumerate_colorings(word, quandle), dtype=np.int64).reshape(-1, word.strands)
    return ColoringSet(word, quandle.size, rows)


def propagate(word, quandle, top) -> tuple[int, ...]:
    """Push a top color state through every crossing; return the bottom state."""
    state = [int(c) for c in top]
    if len(state) != word.strands:
        raise ValueError(
            f"top state has {len(state)} colors, word has {word.strands} strands"
        )
    for c in state:
        if not 0 <= c < quandle.size:
            raise ValueError(f"color {c} outside 0..{quandle.size - 1}")
    table = quandle.table.tolist()
    inverse = right_inverse(quandle.table).tolist() if any(l < 0 for l in word.letters) else None
    for letter in word.letters:
        i = abs(letter) - 1
        x, y = state[i], state[i + 1]
        if letter > 0:
            state[i], state[i + 1] = y, table[x][y]
        else:
            state[i], state[i + 1] = inverse[y][x], x
    return tuple(state)
