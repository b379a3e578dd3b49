"""Named curvature operators used by the CLI and the test-suite.

Each fixture is a pure example of one of the four orthogonal pieces of
the curvature decomposition, or a geometrically meaningful operator:

* ``identity``       — the identity on two-forms (round-sphere type,
                       every sectional curvature equals 1); as the pure
                       trace piece also ``scal-part``.
* ``hodge-star``     — the Hodge star of R^4; a pure four-form part.
* ``s2xs2``          — the curvature operator of a product of two round
                       2-spheres inside R^6 (rank two, sec in [0, 1]).
* ``traceless-ricci``— the Kulkarni product of the metric with
                       diag(1, 0, ..., 0, -1); Ricci-type, scalar-free.
* ``weyl-type``      — a Weyl-type operator built from two rank-one
                       so(4)-dyads; Ricci-flat with zero four-form part.

All matrices are given in the lexicographic pair basis.
"""

from __future__ import annotations

import numpy as np

from .curvature import CurvatureOperator, four_form_matrix, metric_kulkarni
from .multilinear import pair_index


def identity_operator(n):
    """Identity on two-forms: constant sectional curvature one."""
    return CurvatureOperator.identity(n)


def hodge_star_operator(n=4):
    """The Hodge star of R^4 as a curvature operator (pure four-form part)."""
    if n != 4:
        raise ValueError("the Hodge star fixture exists only for n = 4")
    return CurvatureOperator(4, four_form_matrix(4))


def product_spheres_operator(n=4):
    """Curvature operator of S^2 x S^2 (unit factors), n = 4.

    Rank two: the area forms of the two factors are its eigenvectors with
    eigenvalue one; every mixed plane is flat.
    """
    if n != 4:
        raise ValueError("the product-of-spheres fixture exists only for n = 4")
    mat = np.zeros((6, 6))
    mat[pair_index(4, 1, 2), pair_index(4, 1, 2)] = 1.0
    mat[pair_index(4, 3, 4), pair_index(4, 3, 4)] = 1.0
    return CurvatureOperator(4, mat)


def traceless_ricci_operator(n):
    """Pure traceless-Ricci part: metric Kulkarni product with diag(1,0,...,0,-1)."""
    h = np.zeros((n, n))
    h[0, 0] = 1.0
    h[-1, -1] = -1.0
    return CurvatureOperator(n, metric_kulkarni(n, h))


def four_form_operator(n):
    """Pure four-form part: the Hodge star of R^4 embedded into so(n).

    Couples the index pairs (1,2)<->(3,4) with +1, (1,3)<->(2,4) with -1,
    (1,4)<->(2,3) with +1.  Trace-free, Ricci-free, and equal to its own
    four-form projection for every n >= 4.
    """
    if n < 4:
        raise ValueError("the four-form fixture needs n >= 4")
    return CurvatureOperator(n, four_form_matrix(n))


def weyl_type_operator(n):
    """A Weyl-type operator: Ricci-free, trace-free, no four-form part.

    Built from the two so(4)-dyads (E12 + E34) and (E13 - E24): the square
    of the first minus the square of the second embeds into so(n) for any
    n >= 4 and lands in the totally trace-free, symmetric-in-pairs piece.
    """
    if n < 4:
        raise ValueError("the Weyl-type fixture needs n >= 4")
    N = n * (n - 1) // 2
    v1 = np.zeros(N)
    v1[pair_index(n, 1, 2)] = 1.0
    v1[pair_index(n, 3, 4)] = 1.0
    v2 = np.zeros(N)
    v2[pair_index(n, 1, 3)] = 1.0
    v2[pair_index(n, 2, 4)] = -1.0
    return CurvatureOperator(n, np.outer(v1, v1) - np.outer(v2, v2))


FIXTURES = {
    "identity": identity_operator,
    "hodge-star": hodge_star_operator,
    "s2xs2": product_spheres_operator,
    "traceless-ricci": traceless_ricci_operator,
    "weyl-type": weyl_type_operator,
    "four-form": four_form_operator,
}

# other keywords: one per irreducible piece, as the CLI uses them
ALIASES = {
    "scal-part": "identity",
    "RU": "identity",
    "RL": "traceless-ricci",
    "RW": "weyl-type",
    "RW4": "four-form",
}


def fixture_operator(name, n):
    """Look up a named fixture (or alias) at dimension n."""
    key = ALIASES.get(name, name)
    try:
        builder = FIXTURES[key]
    except KeyError:
        names = sorted(FIXTURES) + sorted(ALIASES)
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(names)}"
        ) from None
    return builder(n)
