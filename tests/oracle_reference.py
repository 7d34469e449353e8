"""Reference oracle used by the tests: every candidate top through every letter.

`enumerate_colorings_oracle` builds the state map of the word's repeated
factor once and counts the fixed points of its q-th power; this is the
direct per-letter propagation it must agree with.
"""

import numpy as np

_SLAB = 1 << 16  # candidate rows propagated per batch


def enumerate_colorings(word, quandle) -> list[tuple[int, ...]]:
    """The lexicographically sorted tops that `word` maps back to themselves."""
    m = quandle.size
    p = word.strands
    total = m**p
    table = np.asarray(quandle.table, dtype=np.int64)
    inverse = (
        np.asarray(quandle.inverse_table, dtype=np.int64)
        if any(l < 0 for l in word.letters)
        else None
    )
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
