"""Curvature operators on higher representations: decomposition, closed
forms for the Weitzenbock curvature term, sphere-integral cross-checks,
branching combinatorics, and sectional-curvature bound certification."""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    certify_bound,
    hierarchy_check,
    sec_extremes,
    thorpe_sec_min,
)
from .curvature import (
    CurvatureDecomposition,
    CurvatureOperator,
    TwoPlane,
    decompose,
    ricci,
    scalar_curvature,
    sec,
)
from .fixtures import fixture_operator
from .multilinear import (
    Polynomial,
    RepSpace,
    build_exterior,
    build_symmetric,
    build_traceless,
    harmonic_projection,
)
from .weitzenbock import SymmetricEndomorphism, curvature_term, quadratic_form

__all__ = [
    "Certificate",
    "CurvatureDecomposition",
    "CurvatureOperator",
    "Polynomial",
    "RepSpace",
    "SymmetricEndomorphism",
    "TwoPlane",
    "build_exterior",
    "build_symmetric",
    "build_traceless",
    "certify_bound",
    "curvature_term",
    "decompose",
    "fixture_operator",
    "harmonic_projection",
    "hierarchy_check",
    "quadratic_form",
    "ricci",
    "scalar_curvature",
    "sec",
    "sec_extremes",
    "thorpe_sec_min",
]
