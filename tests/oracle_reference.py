"""Reference oracle used by the tests: every candidate top through every letter.

The package's oracle walks the tops through the window tables (or the
state map) of the word's repeated factor and keeps the fixed points of
its q-th power, counting one top per orbit of the colour shift when the
shift is an automorphism of the table; this is the direct per-letter
propagation over every top that it must agree with.  `coloring_set` holds
its colorings in the package's ColoringSet, for tests that compare them
with the linear backend's or build a quiver on them.  `propagate` pushes
one top state through the word, crossing by crossing.
"""

import numpy as np

from quandlequiver.colorings import ColoringSet

_SLAB = 1 << 16  # candidate rows propagated per batch


def enumerate_colorings(word, quandle) -> list[tuple[int, ...]]:
    """The lexicographically sorted tops that `word` maps back to themselves."""
    m = quandle.size
    p = word.strands
    total = m**p
    table = quandle.table
    inverse = quandle.inverse_table if any(l < 0 for l in word.letters) else None
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
    """enumerate_colorings as a ColoringSet; (0, strands) rows when no top is fixed."""
    rows = np.array(enumerate_colorings(word, quandle), dtype=np.int64).reshape(-1, word.strands)
    return ColoringSet(word, quandle, rows)


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
    inverse = quandle.inverse_table.tolist() if any(l < 0 for l in word.letters) else None
    for letter in word.letters:
        i = abs(letter) - 1
        x, y = state[i], state[i + 1]
        if letter > 0:
            state[i], state[i + 1] = y, table[x][y]
        else:
            state[i], state[i + 1] = inverse[y][x], x
    return tuple(state)
