"""Sphere integrals of monomials and the integral form of the curvature term.

Integrals over the unit sphere in R^n are computed exactly from the
Gamma-function formula: a monomial with any odd exponent integrates to
zero, and for all-even exponents

    int x^a = 2 * prod_i Gamma((a_i + 1)/2) / Gamma((n + |a|)/2).

Products of polynomials, of any degrees p and q, are integrated in
normalized-monomial coordinates through one Gram matrix per (n, p, q),
read off ``multilinear.product_table`` like every other product of
basis vectors.

The curvature term on harmonic polynomials of degree p has an integral
representation: for harmonic phi, psi,

    <K phi, psi> = c * int_{S^{n-1}} sum_{a,b} R_ab (D_a phi)(D_b psi),

where D_a runs over the generator actions ``x_i d_j phi - x_j d_i phi``
and the constant c depends only on (n, p); it is fixed by
``c = <phi, phi> / int phi^2`` and is independent of the harmonic phi
used, which is checked over several choices.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import multilinear as ml
from . import weitzenbock as wz


def integrate_monomial(exps, n=None):
    """Integral of x^exps over the unit sphere S^{n-1}; exact Gamma formula."""
    exps = tuple(int(e) for e in exps)
    if n is None:
        n = len(exps)
    elif n != len(exps):
        raise ValueError("exponent tuple length must equal n")
    if any(e < 0 for e in exps):
        raise ValueError("negative exponent")
    if any(e % 2 for e in exps):
        return 0.0
    num = 2.0
    for e in exps:
        num *= math.gamma((e + 1) / 2)
    return num / math.gamma((n + sum(exps)) / 2)


def sphere_area(n):
    """Surface measure of S^{n-1}: 2 pi^{n/2} / Gamma(n/2)."""
    return integrate_monomial((0,) * n)


def integrate_polynomial(poly):
    """Integral of a polynomial over the unit sphere of its variable space."""
    return float(
        sum(c * integrate_monomial(e, poly.n) for e, c in poly.coeffs.items())
    )


@lru_cache(maxsize=32)
def _gram(n, p, q):
    """``int u_a u_b`` over the normalized monomials u_a of Sym^p, u_b of Sym^q.

    ``u_a u_b = val u_{a+b}`` is a row of ``product_table``, and
    ``int u_c = int x^c / sqrt(c!)``, once per basis vector of Sym^{p+q}.
    """
    out, _, _, val = ml.product_table("symmetric", n, p, q)
    J = np.array([integrate_monomial(c, n)
                  / math.sqrt(math.prod(map(math.factorial, c)))
                  for c in ml.monomial_basis(n, p + q)])
    return (val * J[out]).reshape(ml.dim_symmetric(n, p),
                                  ml.dim_symmetric(n, q))


def _coords(poly, p):
    """Normalized-monomial coordinates of a polynomial of degree p, or 0."""
    return ml.polynomial_coords(ml.build_symmetric(poly.n, p), poly)


def sphere_inner(phi, psi):
    """int phi * psi over the sphere, for polynomials of any degrees."""
    p, q = phi.degree or 0, psi.degree or 0
    return float(_coords(phi, p) @ _gram(phi.n, p, q) @ _coords(psi, q))


def random_harmonic(n, p, rng):
    """Harmonic projection of a random polynomial with uniform coefficients."""
    basis = ml.monomial_basis(n, p)
    coeffs = {e: c for e, c in zip(basis, rng.uniform(-1.0, 1.0, len(basis)))}
    return ml.harmonic_projection(ml.Polynomial(n, coeffs))


_C_CONSTANT_TOL = 1e-8


def c_constant(n, p, probes=3, seed=0):
    """The (n, p) constant relating the pairing norm to the sphere norm.

    Computed as ``<phi, phi> / int phi^2`` on the planar harmonic fixture
    and cross-checked on ``probes`` random harmonics; choices must agree
    to relative ``_C_CONSTANT_TOL``.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    phi = ml.circle_harmonic(n, p)
    c = phi.norm_sq() / sphere_inner(phi, phi)
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        psi = random_harmonic(n, p, rng)
        ns = psi.norm_sq()
        if ns < 1e-12:
            continue
        ci = ns / sphere_inner(psi, psi)
        if abs(ci - c) > _C_CONSTANT_TOL * abs(c):
            raise RuntimeError(
                f"constant is not choice-independent: {c!r} vs {ci!r}"
            )
    return float(c)


def _generator_images(poly, p):
    """Coordinates of ``D_a poly`` for every so(n) generator a, as rows.

    Row m of ``build_symmetric(n, p).pattern`` holds the entries
    ``D_a[m, i]``, so one scatter over it gives every image at once.
    """
    space = ml.build_symmetric(poly.n, p)
    cols, vals, pair = space.pattern
    rows = np.broadcast_to(np.arange(space.dim)[:, None], cols.shape)
    images = np.bincount((pair * space.dim + rows).ravel(),
                         (vals * _coords(poly, p)[cols]).ravel(),
                         minlength=len(space.pairs) * space.dim)
    return images.reshape(len(space.pairs), space.dim)


def integral_form(R, phi, psi):
    """int over the sphere of sum_ab R_ab (D_a phi)(D_b psi), exactly."""
    n = R.n
    if phi.n != n or psi.n != n:
        raise ValueError("variable-count mismatch with the operator")
    p, q = phi.degree or 0, psi.degree or 0
    P = _generator_images(phi, p)
    Q = _generator_images(psi, q)
    return float(np.sum(R.mat * (P @ _gram(n, p, q) @ Q.T)))


@dataclass
class IntegralRow:
    trial: int
    lhs: float
    rhs: float
    rel_err: float

    def to_dict(self):
        return asdict(self)


@dataclass
class IntegralReport:
    n: int
    p: int
    c: float
    tol: float
    seed: int
    rows: list = field(default_factory=list)

    @property
    def worst(self):
        return max((r.rel_err for r in self.rows), default=0.0)

    @property
    def passed(self):
        return self.worst <= self.tol

    def to_dict(self):
        return {
            "n": self.n, "p": self.p, "c": self.c, "tol": self.tol,
            "seed": self.seed, "worst": self.worst, "passed": bool(self.passed),
            "rows": [r.to_dict() for r in self.rows],
        }


_INTEGRAL_TOL = 1e-7


def verify_integral_formula(R, p, trials=10, seed=0):
    """Check the integral representation on random harmonic pairs.

    The left side is the bilinear form of the directly assembled
    curvature term on traceless symmetric power p; the right side is the
    c-scaled sphere integral.  Errors are relative to the larger side, and
    the report passes when none exceeds ``_INTEGRAL_TOL``.
    """
    n = R.n
    space = ml.build_traceless(n, p)
    K = wz.curvature_term(R, space)
    c = c_constant(n, p)
    rng = np.random.default_rng(seed)
    report = IntegralReport(n=n, p=p, c=c, tol=_INTEGRAL_TOL, seed=seed)
    scale = max(1.0, float(np.max(np.abs(K.mat))))
    for t in range(trials):
        phi = random_harmonic(n, p, rng)
        psi = random_harmonic(n, p, rng)
        lhs = wz.bilinear_form(
            K, ml.polynomial_coords(space, phi), ml.polynomial_coords(space, psi)
        )
        rhs = c * integral_form(R, phi, psi)
        denom = max(abs(lhs), abs(rhs), 1e-9 * scale)
        report.rows.append(IntegralRow(t, lhs, rhs, abs(lhs - rhs) / denom))
    return report
