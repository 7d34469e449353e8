"""Reference braid words used by the tests: a torus link written out.

The package never writes T(p, q) out as letters: `braids.factor_power`
reads it as the factor s_1 ... s_{p-1} and its power q.  `torus_braid` is
the written-out word that every route must agree with.
"""

from quandlequiver.braids import BraidWord, TorusLinkSpec, factor_power


def torus_braid(p: int, q: int) -> BraidWord:
    """Braid word (s_1 s_2 ... s_{p-1})^q; q = 0 gives the p-strand unlink."""
    factor, q = factor_power(TorusLinkSpec(p, q))  # validates p and q
    return BraidWord(p, factor.letters * q)
