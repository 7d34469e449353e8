"""Reference braid words used by the tests: a torus link written out, and
a word's shortest period.

The package never writes T(p, q) out as letters: `braids.factor_power`
reads it as the factor s_1 ... s_{p-1} and its power q, and a braid word
as its shortest factor and that factor's power.  `torus_braid` is the
written-out word that every route must agree with, and `shortest_period`
the period that factor_power must find.
"""

from quandlequiver.braids import BraidWord, TorusLinkSpec


def torus_braid(p: int, q: int) -> BraidWord:
    """Braid word (s_1 s_2 ... s_{p-1})^q; q = 0 gives the p-strand unlink."""
    TorusLinkSpec(p, q)  # validates p and q
    return BraidWord(p, tuple(range(1, p)) * q)


def shortest_period(word: BraidWord) -> int:
    """The length of the shortest prefix whose power is the word, 0 for the
    empty word."""
    letters = word.letters
    return next((d for d in range(1, len(letters) + 1)
                 if letters[:d] * (len(letters) // d) == letters), 0)
