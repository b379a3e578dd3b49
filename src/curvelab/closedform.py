"""Closed forms of the curvature term on higher powers.

On exterior powers (2 <= p <= n-2) the curvature term is a metric-power
product of a fixed linear combination of the four decomposition parts:

    K(R, wedge^p) = [ 2(n-p)/(p-1) R_U + (n-2p)/(p-1) R_L
                      - 2 R_W + 4 R_w4 ] o g^{p-2} / (p-2)!

with the product taken in the wedge algebra.  On traceless symmetric
powers (p >= 2) the analogous statement combines the curvature terms of
the parts on the traceless two-tensors:

    K(R, Harm^p) = [ (n+p-2)/(n(p-1)) K(R_U) + (n+2p-4)/(n(p-1)) K(R_L)
                     + K(R_W) ] o g^{p-2} / (p-2)!

in the traceless symmetric algebra, where the four-form part drops out
entirely.  Both right-hand sides are assembled here from ``kn_product``,
the congruence ``P (A (x) B) P^T``, and compared against the directly
assembled double sum.
"""

from __future__ import annotations

import numpy as np

from . import knalgebra as kn
from . import multilinear as ml
from . import weitzenbock as wz
from .curvature import CurvatureOperator, decompose, random_operator


def wedge_coefficients(n, p):
    """(A', B', C', D') of the exterior closed form, for 2 <= p <= n-2."""
    if not 2 <= p <= n - 2:
        raise ValueError(f"wedge closed form needs 2 <= p <= n-2, got p={p}, n={n}")
    return (2.0 * (n - p) / (p - 1), (n - 2.0 * p) / (p - 1), -2.0, 4.0)


def sym_coefficients(n, p):
    """(A, B, C) of the traceless symmetric closed form, for p >= 2."""
    if p < 2:
        raise ValueError("closed forms need p >= 2")
    return ((n + p - 2.0) / (n * (p - 1)), (n + 2.0 * p - 4) / (n * (p - 1)), 1.0)


def thmB_wedge_rhs(R, p):
    """Closed-form right-hand side on the exterior power wedge^p."""
    n = R.n
    A, B, C, D = wedge_coefficients(n, p)
    d = decompose(R)
    bracket = A * d.r_u + B * d.r_l + C * d.r_w + D * d.r_w4
    elt = kn.KNElement("wedge", n, 2, bracket)
    out = kn.kn_product(elt, kn.identity_element("wedge", n, p - 2))
    return wz.SymmetricEndomorphism(ml.build_exterior(n, p), out.mat)


def thmB_sym_rhs(R, p):
    """Closed-form right-hand side on the traceless symmetric power."""
    n = R.n
    A, B, C = sym_coefficients(n, p)
    d = decompose(R)
    # K is linear in R, so the three parts' terms are one term of their sum
    bracket = CurvatureOperator(n, A * d.r_u + B * d.r_l + C * d.r_w)
    combined = wz.curvature_term(bracket, ml.build_traceless(n, 2)).mat
    elt = kn.KNElement("sym0", n, 2, combined)
    out = kn.kn_product(elt, kn.identity_element("sym0", n, p - 2))
    return wz.SymmetricEndomorphism(ml.build_traceless(n, p), out.mat)


def _spectral_distance(a, b):
    ea = np.linalg.eigvalsh(a)
    eb = np.linalg.eigvalsh(b)
    return float(np.max(np.abs(ea - eb))) if ea.size else 0.0


_THMB_TOL = 1e-8


def verify_thmB(n_values=(4, 5, 6), p_values=(2, 3, 4), trials=10, seed=0):
    """Compare both closed forms against direct assembly on random operators.

    Returns the suite's JSON document.  Each row reports the worst
    discrepancy of one (n, p, rep) case entrywise (``max_abs``) and
    spectrally (``max_spectral``, sorted eigenvalues); the document
    passes when none exceeds ``_THMB_TOL``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_values:
        for p in p_values:
            if p < 2:
                continue
            ops = [random_operator(n, rng) for _ in range(trials)]
            cases = [("sym0", ml.build_traceless(n, p), thmB_sym_rhs)]
            if p <= n - 2:
                cases.insert(0, ("wedge", ml.build_exterior(n, p), thmB_wedge_rhs))
            for rep, space, closed_form in cases:
                worst_abs = worst_spec = 0.0
                for R in ops:
                    lhs = wz.curvature_term(R, space).mat
                    rhs = closed_form(R, p).mat
                    worst_abs = max(worst_abs, float(np.max(np.abs(lhs - rhs))))
                    worst_spec = max(worst_spec, _spectral_distance(lhs, rhs))
                rows.append({"n": n, "p": p, "rep": rep, "trials": trials,
                             "max_abs": worst_abs, "max_spectral": worst_spec})
    worst = max((max(r["max_abs"], r["max_spectral"]) for r in rows),
                default=0.0)
    return {"tol": _THMB_TOL, "seed": seed, "worst": worst,
            "passed": worst <= _THMB_TOL, "rows": rows}
