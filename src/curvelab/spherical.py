"""Sphere integrals of monomials and the integral form of the curvature term.

Integrals over the unit sphere in R^n are computed exactly from the
Gamma-function formula: a monomial with any odd exponent integrates to
zero, and for all-even exponents

    int x^a = 2 * prod_i Gamma((a_i + 1)/2) / Gamma((n + |a|)/2).

A polynomial of degree p is its coordinate vector on the normalized
monomials ``u_l = x^l / sqrt(l!)`` of ``multilinear.build_symmetric(n, p)``;
p is read off the vector's length.  Products of polynomials, of any
degrees p and q, are integrated through one Gram matrix per (n, p, q),
read off ``multilinear.product_table`` like every other product of basis
vectors.

The curvature term on harmonic polynomials of degree p has an integral
representation: for harmonic phi, psi,

    <K phi, psi> = c * int_{S^{n-1}} sum_{a,b} R_ab (D_a phi)(D_b psi),

where D_a runs over the generator actions ``x_i d_j phi - x_j d_i phi``
and the constant c depends only on (n, p): it is the Fischer/L^2 ratio
``c = <phi, phi> / int phi^2``, which on harmonic phi of degree p equals
``n (n + 2) ... (n + 2p - 2) / |S^{n-1}|`` (Stein & Weiss, Introduction
to Fourier Analysis on Euclidean Spaces, ch. IV).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import multilinear as ml
from . import weitzenbock as wz


def integrate_monomial(exps):
    """Integral of x^exps over the unit sphere S^{n-1}, n = len(exps);
    exact Gamma formula."""
    exps = tuple(int(e) for e in exps)
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")
    if any(e % 2 for e in exps):
        return 0.0
    num = 2.0
    for e in exps:
        num *= math.gamma((e + 1) / 2)
    return num / math.gamma((len(exps) + sum(exps)) / 2)


def sphere_area(n):
    """Surface measure of S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    return integrate_monomial((0,) * n)


@lru_cache(maxsize=32)
def _gram(n, p, q):
    """``int u_a u_b`` over the normalized monomials u_a of Sym^p, u_b of Sym^q.

    ``u_a u_b = val u_{a+b}`` is a row of ``product_table``, and
    ``int u_c = int x^c / sqrt(c!)``, once per basis vector of Sym^{p+q}.
    """
    out, _, _, val = ml.product_table("symmetric", n, p, q)
    J = np.array([integrate_monomial(c)
                  for c in ml.monomial_basis(n, p + q)])
    J /= ml.monomial_norms(n, p + q)
    return (val * J[out]).reshape(ml.dim_symmetric(n, p),
                                  ml.dim_symmetric(n, q))


def _degree(n, coords):
    """The degree p of Sym^p coordinates on R^n, read off their length:
    ``dim Sym^p`` grows strictly with p once n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = 0
    while ml.dim_symmetric(n, p) < len(coords):
        p += 1
    if ml.dim_symmetric(n, p) != len(coords):
        raise ValueError(f"{len(coords)} coordinates are no symmetric power "
                         f"of R^{n}")
    return p


def sphere_inner(n, phi, psi):
    """int phi * psi over S^{n-1}, for coordinates of any degrees."""
    return float(phi @ _gram(n, _degree(n, phi), _degree(n, psi)) @ psi)


def random_harmonic(n, p, rng):
    """Harmonic projection ``C^T C u`` of a random polynomial, C the
    ``build_traceless(n, p)`` basis: u has uniform coefficients in
    [-1, 1], so ``u_l`` is the l-th draw times ``sqrt(l!)``."""
    C = ml.build_traceless(n, p).change_of_basis
    u = rng.uniform(-1.0, 1.0, C.shape[1]) * ml.monomial_norms(n, p)
    return C.T @ (C @ u)


def c_constant(n, p):
    """The (n, p) constant relating the pairing norm to the sphere norm:
    ``<phi, phi> / int phi^2 = n (n + 2) ... (n + 2p - 2) / |S^{n-1}|``
    for every harmonic phi of degree p."""
    if p < 1:
        raise ValueError("need p >= 1")
    return math.prod(range(n, n + 2 * p, 2)) / sphere_area(n)


def _generator_images(n, p, phi):
    """Coordinates of ``D_a phi`` for every so(n) generator a, as rows.

    ``D_(i,j) = M_i M_j^T - M_j M_i^T``, with ``M_i[z, y] = val`` read off
    the products ``x_i u_y = val u_z`` of the ``(n, 1, p - 1)`` table.
    One scatter lays the table out by column, ``x_j u_y = W[j, y]
    u_X[j, y]``; a second writes ``U[i, j] = M_i M_j^T phi``, entry
    (z, i, y) carrying ``(val W[j, y]) phi[X[j, y]]`` to z.  The entry
    ``D_a[z, x]`` is formed before it meets phi, so each image entry is
    the sum of the two rounded products ``D_a[z, x] phi[x]``.  Row (i, j)
    of the lexicographic pair basis is ``U[i, j] - U[j, i]``; in degree 0
    every image is 0.
    """
    i, j = np.triu_indices(n, 1)
    if p == 0:
        return np.zeros((i.size, 1))
    z, m, y, val = ml.product_table("symmetric", n, 1, p - 1)
    X = np.zeros((n, ml.dim_symmetric(n, p - 1)), dtype=np.intp)
    W = np.zeros(X.shape)
    X[m, y], W[m, y] = z, val
    U = np.zeros((n, n, phi.size))
    U[m, :, z] = val[:, None] * W[:, y].T * phi[X[:, y].T]
    return U[i, j] - U[j, i]


def integral_form(R, phi, psi):
    """int over the sphere of sum_ab R_ab (D_a phi)(D_b psi), exactly."""
    n = R.n
    p, q = _degree(n, phi), _degree(n, psi)
    P = _generator_images(n, p, phi)
    Q = _generator_images(n, q, psi)
    return float(np.sum(R.mat * (P @ _gram(n, p, q) @ Q.T)))


_INTEGRAL_TOL = 1e-7


def verify_integral_formula(R, p, trials=10, seed=0):
    """Check the integral representation on random harmonic pairs.

    The left side is ``(C phi) . K (C psi)``, K the directly assembled
    curvature term on traceless symmetric power p; the right side is the
    c-scaled sphere integral.  Returns the JSON document with one row per
    trial; errors are relative to the larger side, and the document passes
    when none exceeds ``_INTEGRAL_TOL``.
    """
    n = R.n
    space = ml.build_traceless(n, p)
    C = space.change_of_basis
    K = wz.curvature_term(R, space)
    c = c_constant(n, p)
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.max(np.abs(K.mat))))
    rows = []
    for t in range(trials):
        phi = random_harmonic(n, p, rng)
        psi = random_harmonic(n, p, rng)
        lhs = float((C @ phi) @ K.mat @ (C @ psi))
        rhs = c * integral_form(R, phi, psi)
        denom = max(abs(lhs), abs(rhs), 1e-9 * scale)
        rows.append({"trial": t, "lhs": lhs, "rhs": rhs,
                     "rel_err": abs(lhs - rhs) / denom})
    worst = max((r["rel_err"] for r in rows), default=0.0)
    return {"n": n, "p": p, "c": c, "tol": _INTEGRAL_TOL, "seed": seed,
            "worst": worst, "passed": worst <= _INTEGRAL_TOL, "rows": rows}
