"""Exact face-lattice combinatorics, Ehrhart theory and toric sheaf
cohomology of full-dimensional lattice polytopes."""

from .boundary import (
    FaceSubset,
    NerveComplex,
    boundary_complex,
    closed_antistar,
    closed_star,
    closure,
    is_order_filter,
    is_subcomplex,
    link,
    nerve,
    open_antistar,
    star,
)
from .classify import (
    Classification,
    classify_front_back,
    classify_lower_upper,
    classify_visibility,
    definitional_check,
)
from .ehrhart import (
    EhrhartPolynomial,
    count_points,
    ehrhart_polynomial,
    reciprocity_check,
    splitting_index,
)
from .homology import (
    CohomologyResult,
    IntegerChainComplex,
    cohomology,
    face_cochain_complex,
    simplicial_chain_complex,
)
from .linalg import IntMatrix, SmithForm, rank_over_field, smith_normal_form
from .lp import cone_contains, lp_feasible
from .polytope import (
    Face,
    FaceLattice,
    Facet,
    LatticePolytope,
    build_polytope,
    face_lattice,
    negate_polytope,
)
from .sheaf import (
    GlobalCohomology,
    TwistFaceSet,
    classification_crosscheck,
    global_cohomology,
    graded_cohomology,
    membership_oracle,
    twist_membership,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CohomologyResult",
    "EhrhartPolynomial",
    "Face",
    "FaceLattice",
    "FaceSubset",
    "Facet",
    "GlobalCohomology",
    "IntMatrix",
    "IntegerChainComplex",
    "LatticePolytope",
    "NerveComplex",
    "SmithForm",
    "TwistFaceSet",
    "boundary_complex",
    "build_polytope",
    "classification_crosscheck",
    "classify_front_back",
    "classify_lower_upper",
    "classify_visibility",
    "closed_antistar",
    "closed_star",
    "closure",
    "cohomology",
    "cone_contains",
    "count_points",
    "definitional_check",
    "ehrhart_polynomial",
    "face_cochain_complex",
    "face_lattice",
    "global_cohomology",
    "graded_cohomology",
    "is_order_filter",
    "is_subcomplex",
    "link",
    "lp_feasible",
    "membership_oracle",
    "negate_polytope",
    "nerve",
    "open_antistar",
    "rank_over_field",
    "reciprocity_check",
    "simplicial_chain_complex",
    "smith_normal_form",
    "splitting_index",
    "star",
    "twist_membership",
]
