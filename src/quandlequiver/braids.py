"""Braid words, torus links read as powers of one factor (factor_power),
and color propagation through crossings.

Crossing convention: at a positive letter s_i the strand entering at
position i+1 passes over and keeps its color, while the strand entering
at position i goes under and leaves colored (under * over):

    (x, y) at (i, i+1)  ->  (y, x * y).

A negative letter is the inverse transition.  R_n is involutive,
(z * y) * y == z, so it reads the same operation:

    (x, y)  ->  (y * x, x) = (2x - y, x).

With this pairing a letter followed by its inverse restores every color
exactly, and the classical coloring counts pinned in the test suite
(trefoil, figure-eight, the T(p,q) torus series) all come out right;
that is what fixes the handedness choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import integer
from .linalg import product_mod


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_strands.

    Letters are nonzero signed integers: k means the generator s_k,
    -k its inverse, with 1 <= k < strands.  Letters apply top to bottom.
    """

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be at least 1, got {self.strands}")
        letters = tuple(map(int, self.letters))
        object.__setattr__(self, "letters", letters)
        for l in dict.fromkeys(letters):  # each distinct letter, first seen first
            if l == 0 or not 1 <= abs(l) < self.strands:
                raise ValueError(
                    f"letter {l} is not a generator of B_{self.strands}"
                )

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class TorusLinkSpec:
    """The torus link T(p, q), closed from (s_1 ... s_{p-1})^q on p strands."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        if self.q < 0:
            raise ValueError(f"q must be nonnegative, got {self.q}")


def factor_power(link: BraidWord | TorusLinkSpec) -> tuple[BraidWord, int]:
    """(factor, q), the link being the closure of factor**q: (s_1 ... s_{p-1}, q)
    for T(p, q), never written out; a braid word's shortest factor, the word
    itself with q = 1 if it has no shorter period, q = 0 if empty."""
    if isinstance(link, TorusLinkSpec):
        return BraidWord(link.p, tuple(range(1, link.p))), link.q
    letters, length = link.letters, len(link)
    if not length:
        return link, 0
    for d in range(1, length):
        # a period d shifts the word onto itself
        if length % d == 0 and letters[d] == letters[0] and letters[d:] == letters[:-d]:
            return BraidWord(link.strands, letters[:d]), length // d
    return link, 1


def parse_link(text: str) -> BraidWord | TorusLinkSpec:
    """Parse 'torus:p,q' into a TorusLinkSpec, or a braid word like 's1 s2 -s1'.

    p and q are integers in ASCII (config.integer).  For explicit words the
    strand count is max generator index + 1.  An index is ASCII digits;
    each distinct token is read once.
    """
    text = text.strip()
    if text.startswith("torus:"):
        try:
            p, q = map(integer, text[len("torus:"):].split(","))
        except ValueError:
            raise ValueError(f"expected torus:p,q, got {text!r}") from None
        return TorusLinkSpec(p, q)
    tokens = text.split()
    letter_of = {}
    for token in dict.fromkeys(tokens):  # each distinct token, first seen first
        negative = token.startswith("-")
        name = token[1:] if negative else token
        index = name[1:]
        if not name.startswith("s") or not (index.isascii() and index.isdigit()):
            raise ValueError(f"bad braid letter {name!r}; use s3 or -s3")
        k = int(index)
        if k < 1:
            raise ValueError(f"generator index must be at least 1, got {name!r}")
        letter_of[token] = -k if negative else k
    if not tokens:
        raise ValueError("empty braid word; use torus:p,q for an unlink")
    strands = max(map(abs, letter_of.values())) + 1
    return BraidWord(strands, tuple(map(letter_of.__getitem__, tokens)))


def propagation_matrix(word: BraidWord, modulus: int) -> list[list[int]]:
    """Matrix M with bottom = M * top for dihedral targets R_n, n | modulus.

    The dihedral rule is linear in both signs: a positive letter sends
    (x, y) to (y, 2y - x), a negative one to (2x - y, x), so the whole
    word composes to one integer matrix.  Its entries grow geometrically
    with the word, so the rows are reduced mod `modulus` after every
    letter and M is returned as rows of ints in 0..modulus-1.
    """
    p = word.strands
    m = [[int(i == j) % modulus for j in range(p)] for i in range(p)]
    for letter in word.letters:
        i = abs(letter) - 1
        ri, rj = m[i], m[i + 1]
        if letter > 0:
            m[i], m[i + 1] = rj, [(2 * b - a) % modulus for a, b in zip(ri, rj)]
        else:
            m[i], m[i + 1] = [(2 * a - b) % modulus for a, b in zip(ri, rj)], ri
    return m


def closure_system(link: BraidWord | TorusLinkSpec, modulus: int) -> list[list[int]]:
    """M**q - I mod `modulus`, M**q by square-and-multiply from the link's
    factor (q = 1 takes no product): colorings of the closure by R_n, for
    any n dividing the modulus, are its kernel mod n."""
    factor, q = factor_power(link)
    if not q:  # the trivial braid: every top closes up
        return [[0] * factor.strands for _ in range(factor.strands)]
    square, power = propagation_matrix(factor, modulus), None
    while q:
        if q & 1:
            power = square if power is None else product_mod(power, square, modulus)
        q >>= 1
        square = product_mod(square, square, modulus) if q else square
    if isinstance(power, np.ndarray):
        # the elimination runs on Python ints, not numpy scalars
        power = power.tolist()
    return [[(x - (i == j)) % modulus for j, x in enumerate(row)] for i, row in enumerate(power)]
