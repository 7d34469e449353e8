"""Quandle coloring counts and coloring quivers of braid-closure links.

The package counts colorings of torus links (and arbitrary braid
closures) by dihedral quandles three independent ways: brute-force
propagation over a Cayley table, linear algebra through the Smith normal
form mod n on bounded integers, and closed-form count formulas;
and it builds, compares, and exports the coloring quivers induced by
the endomorphisms of R_n, its n^2 affine maps.
"""

from .braids import (
    BraidWord,
    TorusLinkSpec,
    closure_system,
    parse_link,
    propagation_matrix,
)
from .colorings import ColoringSet, enumerate_colorings_linear
from .counting import (
    CellRecord,
    CountPrediction,
    is_odd_prime,
    predict_count,
    verify_counts,
)
from .errors import CapExceededError, InternalConsistencyError
from .export import csv_chunks, dot_chunks, json_chunks
from .linalg import (
    kernel_enumerate_mod,
    smith_normal_form,
)
from .quivers import (
    QuiverForm,
    WeightedQuiver,
    build_quiver,
    isomorphic,
    lattice_form,
)

__all__ = [
    "BraidWord",
    "CapExceededError",
    "CellRecord",
    "ColoringSet",
    "CountPrediction",
    "InternalConsistencyError",
    "QuiverForm",
    "TorusLinkSpec",
    "WeightedQuiver",
    "build_quiver",
    "closure_system",
    "csv_chunks",
    "dot_chunks",
    "enumerate_colorings_linear",
    "is_odd_prime",
    "isomorphic",
    "json_chunks",
    "kernel_enumerate_mod",
    "lattice_form",
    "parse_link",
    "predict_count",
    "propagation_matrix",
    "smith_normal_form",
    "verify_counts",
]
