"""Polyhedral homotopy: mixed volumes, mixed cells, toric start systems.

The sparse half of a PHCpack-style blackbox solver: Newton-polytope
supports, random integer liftings, mixed-cell enumeration by the
lower-hull test, binomial start systems solved in closed form, and the
per-cell coefficient homotopies that track their toric roots to a
generic system — which `repro.homotopy.solve(start="polyhedral")` then
carries to the actual target.
"""

from .supports import (
    augment_with_origin,
    random_coefficient_system,
    random_lifting,
    supports_of,
)
from .lp import inequalities_feasible, lp_feasible, lp_feasible_stack
from .cells import (
    DegenerateLiftingError,
    MixedCell,
    MixedSubdivision,
    induced_subdivision,
    mixed_cells,
    mixed_volume,
)
from .binomial import monomial_map, smith_normal_form, solve_binomial_system
from .homotopy import CellHomotopy, PolyhedralStart

__all__ = [
    "supports_of",
    "augment_with_origin",
    "random_lifting",
    "random_coefficient_system",
    "lp_feasible",
    "lp_feasible_stack",
    "inequalities_feasible",
    "DegenerateLiftingError",
    "MixedCell",
    "MixedSubdivision",
    "induced_subdivision",
    "mixed_cells",
    "mixed_volume",
    "smith_normal_form",
    "solve_binomial_system",
    "monomial_map",
    "CellHomotopy",
    "PolyhedralStart",
]
