"""Exact Nash blow-ups of rational polyhedral cones.

Computes Hilbert bases, iterated blow-up resolution trees, and the
classification of simplicial cones by dimension and lattice index, all in
exact integer/rational arithmetic with no external polyhedral tools.
"""

from .cones import (
    Cone,
    Polyhedron,
    canonical_key,
    cone_from_facets,
    cone_from_rays,
    direct_sum_decompose,
    dual,
    dual_index,
    equivalent,
    index,
    is_smooth,
    localize,
    minkowski_sum_hull,
)
from .errors import BudgetExceeded, NotAVertex, NotProper, ZeroDenominator
from .hilbert import HilbertBasis, hilbert_basis, parallelepiped_points, triangulate
from .nash import ResolutionTree, nash_blowup, resolution_tree, sum_set, tree_stats
from .classify import (
    ClassTable,
    ConeClass,
    class_counts,
    class_table,
    classify,
    cone_by_name,
    enumerate_hnf,
)
from .surface import (
    StdCone2D,
    hilbert_basis_2d,
    hj_eval,
    hj_expand,
    hj_tails,
    nash_blowup_2d,
    resolve_2d,
    standard_form_2d,
)

__all__ = [
    "Cone",
    "Polyhedron",
    "HilbertBasis",
    "ResolutionTree",
    "ClassTable",
    "ConeClass",
    "StdCone2D",
    "class_table",
    "BudgetExceeded",
    "NotAVertex",
    "NotProper",
    "ZeroDenominator",
    "canonical_key",
    "cone_from_facets",
    "cone_from_rays",
    "cone_by_name",
    "class_counts",
    "classify",
    "direct_sum_decompose",
    "dual",
    "dual_index",
    "enumerate_hnf",
    "equivalent",
    "hilbert_basis",
    "hilbert_basis_2d",
    "hj_eval",
    "hj_expand",
    "hj_tails",
    "index",
    "is_smooth",
    "localize",
    "minkowski_sum_hull",
    "nash_blowup",
    "nash_blowup_2d",
    "parallelepiped_points",
    "resolution_tree",
    "resolve_2d",
    "standard_form_2d",
    "sum_set",
    "tree_stats",
    "triangulate",
]
