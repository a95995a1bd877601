"""mediankit: finite weighted pocsets, median geometry, group actions and
the boundary chain calculus, with exact rational arithmetic throughout."""

__version__ = "0.1.0"

from .config import Budgets, DEFAULT_BUDGETS
from .errors import MedianKitError
from .pocset import (
    ConvexSet,
    Point,
    ValidationReport,
    WeightedPocset,
    convex_hull,
    distance,
    gate_pair,
    gate_project,
    inseparable_closure,
    interval,
    median,
    point_from_ids,
    points,
    separating,
    validate,
)
from .structure import (
    Automorphism,
    Decomposition,
    automorphisms,
    decompose,
    factor_permutation,
    pocset_product,
    rank,
    transverse,
)
from .subdivision import Subdivision, atom_mass, cube_at, lift, subdivide, tower

__all__ = [name for name in dir() if not name.startswith("_")]
