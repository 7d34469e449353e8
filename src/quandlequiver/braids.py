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
from .errors import InternalConsistencyError
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


def _read_fields(colors: list[int], p: int, width: int, modulus: int) -> list[list[int]]:
    """Each color's p signed fields of `width` bytes, mod `modulus`, as rows.

    2**(F-1) is added to every field, so the colors are nonnegative and
    their little-endian bytes hold each field f as the F-bit digit
    f + 2**(F-1).  The walk keeps |f| <= 2**(F-3), so every digit's top
    byte lies in 0x60..0xA0; one outside it, whatever the modulus, is a
    field that overflowed, and the read raises.  When the bytes above
    every field's low eight only extend its sign, the fields are those
    eight bytes as int64, reduced in numpy; otherwise each field is read
    as one Python int.  Either way the read is exact.
    """
    size = width * p
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * p, "little")
    try:
        data = b"".join([(c + offset).to_bytes(size, "little") for c in colors])
    except OverflowError:  # the last field overflowed past the color's bytes
        raise InternalConsistencyError("a field of the packed coloring overflowed") from None
    raw = np.frombuffer(data, np.uint8).reshape(len(colors), p, width)
    # each field's low eight bytes, read in place as int64; the field is
    # that int64 when its bytes above them are 2**(F-1)'s plus its sign
    low = np.ndarray(raw.shape[:2], "<i8", data, strides=(size, width))
    high = raw[..., 8:] ^ np.frombuffer(bytes(width - 9) + b"\x80", np.uint8)
    if (high == (low >> 63).astype(np.uint8)[..., None]).all():
        fields = low % modulus if modulus < 2**63 else low.astype(object) % modulus
        return fields.tolist()
    if ((raw[..., -1] - np.uint8(0x60)) > 0x40).any():
        raise InternalConsistencyError("a field of the packed coloring overflowed")
    half = 1 << (8 * width - 1)
    view = memoryview(data)
    return [[(int.from_bytes(view[at:at + width], "little") - half) % modulus
             for at in range(row, row + size, width)] for row in range(0, len(data), size)]


def propagation_matrix(word: BraidWord, modulus: int) -> list[list[int]]:
    """Matrix M with bottom = M * top for dihedral targets R_n, n | modulus,
    as rows of ints in 0..modulus-1.

    The dihedral rule is linear in both signs: a positive letter sends
    (x, y) to (y, 2y - x), a negative one to (2x - y, x), so the whole
    word composes to one integer matrix, and one integer coloring walked
    over Z carries all of it.  Strand j's top color is 2**(F*j), with
    F = bits(L) + 64 rounded up to whole bytes, so each strand's color is
    the integer whose F-bit signed fields are its row of M, and a letter
    is one big-int step, 2*b - a.  The entries grow with the word: each
    strand keeps a bound on its fields, and a letter that could push one
    past 2**(F-3) first reduces its two strands mod L.  M is read once
    (`_read_fields`) and checked twice: no field may have left its
    bound, and since a constant coloring passes every crossing
    unchanged, each row of M must sum to 1.
    """
    p = word.strands
    width = (modulus.bit_length() + 64 + 7) // 8
    bits = 8 * width
    limit = 1 << (bits - 3)
    colors = [1 << (bits * j) for j in range(p)]
    bounds = [1] * p

    def reduce_pair(k):
        # strands k - 1 and k, their fields mod L packed back
        for j, row in zip((k - 1, k), _read_fields(colors[k - 1:k + 1], p, width, modulus)):
            colors[j] = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in row), "little")
            bounds[j] = modulus - 1

    for letter in word.letters:
        # the letter's strands sit at k - 1 and k: the over strand i keeps
        # its color and moves to j, the under strand leaves i as 2*over - under
        k = abs(letter)
        i, j = (k, k - 1) if letter > 0 else (k - 1, k)
        bound = 2 * bounds[i] + bounds[j]
        if bound > limit:
            reduce_pair(k)
            bound = 2 * bounds[i] + bounds[j]
        colors[j], colors[i] = colors[i], 2 * colors[i] - colors[j]
        bounds[j], bounds[i] = bounds[i], bound
    rows = _read_fields(colors, p, width, modulus)
    if any(sum(row) % modulus != 1 % modulus for row in rows):
        raise InternalConsistencyError("a row of the propagation matrix does not sum to 1 mod L")
    return rows


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
    for i, row in enumerate(power):
        row[i] = (row[i] - 1) % modulus
    return power
