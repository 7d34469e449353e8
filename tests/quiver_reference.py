"""Reference quiver build used by the tests: one arrow at a time.

`build_quiver` keys the colorings in base m and finds every image row by
`searchsorted`; this is the direct per-arrow loop it must agree with.
"""

from quandlequiver.errors import InternalConsistencyError
from quandlequiver.quivers import WeightedQuiver


def build_quiver(coloring_set, endos):
    """The quiver with one arrow f -> phi . f per coloring f and endomorphism phi."""
    colorings = coloring_set.colorings
    index = {c: k for k, c in enumerate(colorings)}
    quiver = WeightedQuiver(len(colorings), labels=list(colorings))
    for phi in endos:
        for k, f in enumerate(colorings):
            g = phi.apply(f)
            j = index.get(g)
            if j is None:
                raise InternalConsistencyError(
                    f"image {g} of coloring {f} under {phi!r} is not itself a coloring"
                )
            quiver.add(k, j)
    return quiver
