"""Exact sphere integration and the integral form of the curvature term."""

import math

import numpy as np
import pytest

from curvelab import multilinear as ml
from curvelab import spherical as sp
from curvelab import weitzenbock as wz

from conftest import (Polynomial, circle_harmonic, dense_generators,
                      harmonic_projection, polynomial_coords, r_squared,
                      random_operator)


def _random_poly(n, p, rng):
    return Polynomial(
        n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})


def _coords(poly):
    """The oracle polynomial as the coordinates curvelab takes."""
    return polynomial_coords(ml.build_symmetric(poly.n, poly.degree or 0),
                             poly)


def _integrate(poly):
    """Integral over the unit sphere, one monomial at a time."""
    return float(
        sum(c * sp.integrate_monomial(e)
            for e, c in poly.coeffs.items())
    )


def _batch_eval(poly, pts):
    """poly at each row of pts: per chunk of 4096 points, a table of the
    powers x_i^e, every monomial as a product of its rows, and one
    matrix-vector product with the coefficients."""
    exps = np.array(list(poly.coeffs))
    coeffs = np.array(list(poly.coeffs.values()), dtype=float)
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], 4096):
        x = pts[lo:lo + 4096].T
        powers = x ** np.arange(exps.max() + 1)[:, None, None]
        mono = powers[exps[:, 0], 0]
        for i in range(1, len(x)):
            mono *= powers[exps[:, i], i]
        out[lo:lo + 4096] = coeffs @ mono
    return out


# ---------------------------------------------------------------------------
# monomial integrals


def test_sphere_areas_match_closed_forms():
    assert sp.sphere_area(2) == pytest.approx(2 * math.pi)
    assert sp.sphere_area(3) == pytest.approx(4 * math.pi)
    assert sp.sphere_area(4) == pytest.approx(2 * math.pi ** 2)
    assert sp.sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3)


def test_odd_monomials_vanish():
    assert sp.integrate_monomial((1, 0, 0)) == 0.0
    assert sp.integrate_monomial((2, 3, 0, 0)) == 0.0
    assert sp.integrate_monomial((1, 1, 1, 1)) == 0.0


def test_even_monomial_values_by_hand():
    # int x1^2 = area / n by symmetry
    for n in (3, 4, 5):
        exps = (2,) + (0,) * (n - 1)
        assert sp.integrate_monomial(exps) == pytest.approx(
            sp.sphere_area(n) / n)
    # int x1^2 x2^2 over S^3: area * 1/24; int x1^4 = area * 3/24
    assert sp.integrate_monomial((2, 2, 0, 0)) == pytest.approx(
        2 * math.pi ** 2 / 24)
    assert sp.integrate_monomial((4, 0, 0, 0)) == pytest.approx(
        2 * math.pi ** 2 / 8)


def test_r_squared_factor_drops_out(rng):
    # multiplying by sum x_i^2 changes nothing on the unit sphere
    for n, p in ((3, 3), (4, 2)):
        f = _random_poly(n, p, rng)
        lhs = _integrate(r_squared(n) * f)
        rhs = _integrate(f)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_monte_carlo_agrees_with_gamma_formula(rng):
    # independent randomized oracle on a degree-8 random polynomial
    n, p, m = 4, 8, 400_000
    f = _random_poly(n, p, rng)
    pts = rng.standard_normal((m, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = _batch_eval(f, pts)
    # the vectorized evaluation against the term-by-term loop
    np.testing.assert_allclose(vals[:1000], f.evaluate(pts[:1000]),
                               rtol=0, atol=1e-12)
    mc_mean = vals.mean()
    mc_err = vals.std(ddof=1) / math.sqrt(m)
    exact_mean = _integrate(f) / sp.sphere_area(n)
    assert abs(mc_mean - exact_mean) < 3.5 * mc_err


def test_sphere_inner_is_positive_definite(rng):
    n, p = 4, 3
    f = _coords(_random_poly(n, p, rng))
    assert sp.sphere_inner(n, f, f) > 0
    g = _coords(_random_poly(n, p, rng))
    assert sp.sphere_inner(n, f, g) == pytest.approx(sp.sphere_inner(n, g, f),
                                                     rel=1e-12)


# (n, p, q): one equal-degree case, then mixed degrees
_DEGREES = [(4, 3, 3), (3, 2, 4), (4, 3, 5), (4, 1, 3), (3, 0, 2)]


@pytest.mark.parametrize("n, p, q", _DEGREES)
def test_sphere_inner_matches_product_integral(rng, n, p, q):
    f, g = _random_poly(n, p, rng), _random_poly(n, q, rng)
    expect = _integrate(f * g)
    f, g = _coords(f), _coords(g)
    assert abs(sp.sphere_inner(n, f, g) - expect) <= 1e-12 * abs(expect)
    assert abs(sp.sphere_inner(n, g, f) - expect) <= 1e-12 * abs(expect)


# ---------------------------------------------------------------------------
# the normalizing constant


def test_c_constant_linear_case_is_dimension_over_area():
    for n in (3, 4, 5):
        assert sp.c_constant(n, 1) == pytest.approx(n / sp.sphere_area(n),
                                                    rel=1e-12)


@pytest.mark.parametrize("n", range(3, 8))
def test_c_constant_matches_its_closed_form(n):
    # the definition c = <phi, phi> / int phi^2 against the closed form
    # n (n + 2) ... (n + 2p - 2) / |S^{n-1}| that c_constant returns (the
    # Fischer/L^2 relation, Stein & Weiss, ch. IV), on the circle harmonic
    # and on seeded random harmonics of each degree
    rng = np.random.default_rng(n)
    for p in range(1, 7):
        c = sp.c_constant(n, p)
        for phi in [circle_harmonic(n, p)] + [
                sp.random_harmonic(n, p, rng) for _ in range(3)]:
            ratio = (phi @ phi) / sp.sphere_inner(n, phi, phi)
            assert abs(ratio - c) <= 1e-12 * c


def test_c_constant_builds_no_basis_and_draws_no_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("c_constant is a closed form")

    monkeypatch.setattr(ml, "build_traceless", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    for n, p in ((3, 1), (4, 3), (7, 6)):
        assert sp.c_constant(n, p) > 0
    with pytest.raises(ValueError):
        sp.c_constant(4, 0)


# ---------------------------------------------------------------------------
# the integral form


def test_integral_form_is_symmetric_bilinear(rng):
    n, p = 4, 3
    R = random_operator(n, rng)
    f = _coords(harmonic_projection(_random_poly(n, p, rng)))
    g = _coords(harmonic_projection(_random_poly(n, p, rng)))
    h = _coords(harmonic_projection(_random_poly(n, p, rng)))
    assert sp.integral_form(R, f, g) == pytest.approx(
        sp.integral_form(R, g, f), rel=1e-10, abs=1e-10)
    a, b = rng.standard_normal(2)
    lhs = sp.integral_form(R, a * f + b * g, h)
    rhs = a * sp.integral_form(R, f, h) + b * sp.integral_form(R, g, h)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_integral_form_matches_algebraic_curvature_term(rng):
    # dual route: c * integral form = the assembled bilinear form
    for (n, p) in ((3, 2), (4, 2), (4, 3)):
        R = random_operator(n, rng)
        space = ml.build_traceless(n, p)
        K = wz.curvature_term(R, space)
        c = sp.c_constant(n, p)
        for _ in range(3):
            f = harmonic_projection(_random_poly(n, p, rng))
            g = harmonic_projection(_random_poly(n, p, rng))
            lhs = (polynomial_coords(space, f) @ K.mat
                   @ polynomial_coords(space, g))
            rhs = c * sp.integral_form(R, _coords(f), _coords(g))
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("n, p, q", _DEGREES)
def test_integral_form_matches_double_sum(rng, n, p, q):
    # the brute-force sum_ab R_ab int (D_a f)(D_b g), one product at a time
    R = random_operator(n, rng)
    f, g = _random_poly(n, p, rng), _random_poly(n, q, rng)
    pairs = ml.pair_basis(n)
    expect = sum(
        R.mat[a, b] * _integrate(
            f.rotation_action(*pa) * g.rotation_action(*pb))
        for a, pa in enumerate(pairs) for b, pb in enumerate(pairs))
    f, g = _coords(f), _coords(g)
    assert abs(sp.integral_form(R, f, g) - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("p", range(6))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generator_images_match_dense_generators(rng, n, p):
    # the two scatters of the (n, 1, p - 1) table against the oracle's
    # dense D_a; p = 0 is one zero coordinate per pair
    phi = rng.standard_normal(ml.dim_symmetric(n, p))
    want = dense_generators(ml.build_symmetric(n, p)) @ phi
    got = sp._generator_images(n, p, phi)
    assert got.shape == want.shape == (math.comb(n, 2),
                                       ml.dim_symmetric(n, p))
    assert (np.abs(got - want).max(initial=0.0)
            <= 1e-14 * np.abs(want).max(initial=0.0))


def test_cross_degree_harmonics_decouple(rng):
    # harmonics of different degree embedded in one symmetric power do not
    # interact through the integral form
    n = 4
    R = random_operator(n, rng)
    h4 = _coords(harmonic_projection(_random_poly(n, 4, rng)))
    h2 = harmonic_projection(_random_poly(n, 2, rng))
    lifted = _coords(r_squared(n) * h2)  # same total degree as h4
    val = sp.integral_form(R, h4, lifted)
    scale = max(1.0, abs(sp.integral_form(R, h4, h4)))
    assert abs(val) / scale < 1e-9


def test_verify_report(rng):
    R = random_operator(4, rng)
    d = sp.verify_integral_formula(R, 2, trials=5, seed=3)
    assert d["passed"]
    assert d["worst"] < 1e-7
    assert len(d["rows"]) == 5
    assert d["n"] == 4 and d["p"] == 2
