"""Curvature operators on higher representations: decomposition, closed
forms for the Weitzenbock curvature term, sphere-integral cross-checks,
branching combinatorics, and sectional-curvature bound certification.

Importing the package loads no submodule: each public name imports its
defining module on first access (PEP 562), so ``curvelab.sec`` loads
``curvelab.curvature`` and nothing else.
"""

import importlib

__version__ = "0.1.0"

# the default ``--seed`` of ``verify``, the one command with random trials
DEFAULT_SEED = 0xC04A7

# public name -> defining submodule
_HOMES = {
    "Certificate": "certify",
    "certify_bound": "certify",
    "hierarchy_check": "certify",
    "sec_extremes": "certify",
    "thorpe_sec_min": "certify",
    "CurvatureDecomposition": "curvature",
    "CurvatureOperator": "curvature",
    "TwoPlane": "curvature",
    "decompose": "curvature",
    "ricci": "curvature",
    "scalar_curvature": "curvature",
    "sec": "curvature",
    "fixture_operator": "fixtures",
    "RepSpace": "multilinear",
    "build_exterior": "multilinear",
    "build_symmetric": "multilinear",
    "build_traceless": "multilinear",
    "SymmetricEndomorphism": "weitzenbock",
    "curvature_term": "weitzenbock",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
