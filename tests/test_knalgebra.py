"""Graded products on symmetric forms over exterior and symmetric powers."""

from math import factorial

import numpy as np
import pytest

from curvelab import knalgebra as kn
from curvelab import multilinear as ml
from curvelab.curvature import metric_kulkarni

from conftest import (Polynomial, coords_to_polynomial, polynomial_coords,
                      project_traceless, r_squared, random_operator,
                      wedge_coords)


def _rank_one(algebra, n, p, vec):
    return kn.KNElement(algebra, n, p, np.outer(vec, vec))


def _random_element(algebra, n, p, rng, rank=2):
    dim = kn.space_for(algebra, n, p).dim
    mat = sum(np.outer(v, v) * s for v, s in
              zip(rng.standard_normal((rank, dim)), rng.standard_normal(rank)))
    return kn.KNElement(algebra, n, p, mat)


def test_element_validation():
    with pytest.raises(ValueError):
        kn.KNElement("wedge", 4, 2, np.eye(5))
    e = kn.KNElement("wedge", 4, 2, np.triu(np.ones((6, 6))))
    np.testing.assert_array_equal(e.mat, e.mat.T)


def test_metric_element_is_identity_on_vectors():
    for algebra in ("wedge", "sym", "sym0"):
        g = kn.g_element(algebra, 4)
        np.testing.assert_array_equal(g.mat, np.eye(4))
        assert g.grade == 1


def test_wedge_product_of_rank_one_dyads(rng):
    # definition on decomposables: (a ox a) wedge (b ox b) = (a^b) ox (a^b)
    n = 5
    space1 = kn.space_for("wedge", n, 1)
    space2 = kn.space_for("wedge", n, 2)
    a = rng.standard_normal(space1.dim)
    b = rng.standard_normal(space1.dim)
    prod = kn.kn_product(_rank_one("wedge", n, 1, a), _rank_one("wedge", n, 1, b))
    ab = wedge_coords(space2, [
        (a[i] * b[j], (i + 1, j + 1))
        for i in range(n) for j in range(n) if i != j
    ])
    np.testing.assert_allclose(prod.mat, np.outer(ab, ab), atol=1e-12)


def test_sym_product_of_rank_one_dyads_is_polynomial_multiplication(rng):
    # (phi ox phi) vee (psi ox psi) = (phi psi) ox (phi psi)
    n = 3
    s1 = kn.space_for("sym", n, 1)
    s2 = kn.space_for("sym", n, 2)
    a = rng.standard_normal(s1.dim)
    b = rng.standard_normal(s1.dim)
    prod = kn.kn_product(_rank_one("sym", n, 1, a), _rank_one("sym", n, 1, b))
    pa = coords_to_polynomial(s1, a)
    pb = coords_to_polynomial(s1, b)
    ab = polynomial_coords(s2, pa * pb)
    np.testing.assert_allclose(prod.mat, np.outer(ab, ab), atol=1e-12)


def test_products_are_commutative(rng):
    n = 4
    for algebra in ("wedge", "sym", "sym0"):
        a = _random_element(algebra, n, 1, rng)
        b = _random_element(algebra, n, 2, rng)
        ab = kn.kn_product(a, b)
        ba = kn.kn_product(b, a)
        assert ab.grade == 3
        assert np.abs(ab.mat - ba.mat).max() < 1e-10


def test_products_are_associative(rng):
    n = 4
    for algebra in ("wedge", "sym", "sym0"):
        a = _random_element(algebra, n, 1, rng, rank=1)
        b = _random_element(algebra, n, 1, rng, rank=1)
        c = _random_element(algebra, n, 1, rng, rank=1)
        left = kn.kn_product(kn.kn_product(a, b), c)
        right = kn.kn_product(a, kn.kn_product(b, c))
        assert np.abs(left.mat - right.mat).max() < 1e-10


def test_bilinearity(rng):
    n = 4
    algebra = "wedge"
    a1 = _random_element(algebra, n, 1, rng)
    a2 = _random_element(algebra, n, 1, rng)
    b = _random_element(algebra, n, 1, rng)
    s, t = rng.standard_normal(2)
    combo = kn.KNElement(algebra, n, 1, s * a1.mat + t * a2.mat)
    lhs = kn.kn_product(combo, b).mat
    rhs = (s * kn.kn_product(a1, b).mat + t * kn.kn_product(a2, b).mat)
    assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("algebra", ["wedge", "sym", "sym0"])
def test_bilinear_below_any_eigenvalue_cut(algebra, rng):
    # A = M + delta e e^T, e an eigen-direction at delta = 1e-14 of the
    # largest eigenvalue 1: its share of the product is delta (e e^T) B
    delta = 1e-14
    for n in (4, 5):
        for ga, gb in ((1, 1), (2, 1), (2, 2)):
            if algebra == "wedge" and ga + gb > n:
                continue
            dim = kn.space_for(algebra, n, ga).dim
            M = rng.standard_normal((dim - 1, dim - 1))
            M = M @ M.T
            A0 = np.zeros((dim, dim))
            A0[:-1, :-1] = M / np.linalg.eigvalsh(M)[-1]
            A = A0.copy()
            A[-1, -1] = delta
            E = np.zeros((dim, dim))
            E[-1, -1] = 1.0
            B = kn.identity_element(algebra, n, gb)

            def product(mat):
                return kn.kn_product(kn.KNElement(algebra, n, ga, mat), B).mat

            share = product(A) - product(A0)
            direction = product(E)
            err = np.abs(share - delta * direction).max()
            assert err <= 0.1 * delta * np.abs(direction).max(), (n, ga, gb)


def test_metric_kulkarni_is_the_grade_one_wedge_product(rng):
    # the classical Kulkarni-Nomizu product is the (1, 1) wedge case
    for n in range(3, 8):
        h, k = rng.standard_normal((2, n, n))
        h, k = h + h.T, k + k.T
        prod = kn.kn_product(kn.KNElement("wedge", n, 1, h),
                             kn.KNElement("wedge", n, 1, k))
        np.testing.assert_allclose(metric_kulkarni(n, h, k), prod.mat,
                                   rtol=0, atol=1e-15 * np.abs(prod.mat).max())


def test_metric_squared_is_twice_identity_on_two_forms():
    g = kn.g_element("wedge", 5)
    gg = kn.kn_product(g, g)
    np.testing.assert_allclose(gg.mat, 2.0 * np.eye(10), atol=1e-12)


def test_wedge_product_with_metric_matches_kulkarni_construction(rng):
    # dual route: the matrix-level wedge of g with a symmetric h must equal
    # the classical coordinate-level Kulkarni product with the metric
    n = 5
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = kn.g_element("wedge", n)
    hel = kn.KNElement("wedge", n, 1, h)
    prod = kn.kn_product(g, hel)
    np.testing.assert_allclose(prod.mat, metric_kulkarni(n, h), atol=1e-10)


@pytest.mark.parametrize("algebra", ["wedge", "sym", "sym0"])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_iterated_metric_powers(algebra, p):
    n = 4
    folded = kn.iterated_g_power(algebra, n, p)
    closed = kn.g_power(algebra, n, p)
    assert np.abs(folded.mat - closed.mat).max() < 1e-10
    dim = kn.space_for(algebra, n, p).dim
    np.testing.assert_allclose(closed.mat, factorial(p) * np.eye(dim),
                               atol=1e-12)


def test_rank_one_squares_vanish_in_wedge(rng):
    # alpha wedge alpha = 0 forces (a ox a) wedge (a ox a) = 0
    n = 4
    a = rng.standard_normal(4)
    el = _rank_one("wedge", n, 1, a)
    sq = kn.kn_product(el, el)
    assert np.abs(sq.mat).max() < 1e-12


def test_traceless_projection_roundtrip(rng):
    n, p = 4, 2
    sym = _random_element("sym", n, p, rng)
    projected = project_traceless(sym)
    assert projected.algebra == "sym0"
    C = kn.space_for("sym0", n, p).change_of_basis
    np.testing.assert_allclose(projected.mat, C @ sym.mat @ C.T, atol=1e-12)


def test_trace_terms_form_an_ideal(rng):
    # b = (r^2 xi) ox zeta + zeta ox (r^2 xi) lies in the kernel of the
    # traceless projection ideal: pi(a vee b) = 0
    n, p, q = 4, 3, 2
    sym_p = kn.space_for("sym", n, p)
    xi = Polynomial(n, {e: rng.standard_normal()
                        for e in ml.monomial_basis(n, p - 2)})
    zeta = Polynomial(n, {e: rng.standard_normal()
                          for e in ml.monomial_basis(n, p)})
    r2xi = polynomial_coords(sym_p, r_squared(n) * xi)
    zv = polynomial_coords(sym_p, zeta)
    b = kn.KNElement("sym", n, p, np.outer(r2xi, zv) + np.outer(zv, r2xi))
    a = _random_element("sym", n, q, rng)
    prod = kn.kn_product(a, b)
    C = kn.space_for("sym0", n, p + q).change_of_basis
    assert np.abs(C @ prod.mat @ C.T).max() < 1e-10


def test_vee_on_traceless_is_project_of_ambient_product(rng):
    # the traceless product is defined through the ambient one
    n = 4
    a0 = _random_element("sym0", n, 2, rng)
    b0 = _random_element("sym0", n, 1, rng)
    prod = kn.kn_product(a0, b0)
    C2 = kn.space_for("sym0", n, 2).change_of_basis
    C1 = kn.space_for("sym0", n, 1).change_of_basis
    a_amb = kn.KNElement("sym", n, 2, C2.T @ a0.mat @ C2)
    b_amb = kn.KNElement("sym", n, 1, C1.T @ b0.mat @ C1)
    amb = kn.kn_product(a_amb, b_amb)
    C3 = kn.space_for("sym0", n, 3).change_of_basis
    np.testing.assert_allclose(prod.mat, C3 @ amb.mat @ C3.T, atol=1e-10)


def test_positivity_preserved_by_metric_powers(rng):
    # multiplying a PSD element by a metric power keeps it PSD
    n = 4
    for algebra, p in (("wedge", 2), ("sym0", 2)):
        dim = kn.space_for(algebra, n, 1).dim
        vs = rng.standard_normal((3, dim))
        a = kn.KNElement(algebra, n, 1,
                         sum(np.outer(v, v) for v in vs))
        prod = kn.kn_product(a, kn.g_power(algebra, n, p))
        assert np.linalg.eigvalsh(prod.mat)[0] > -1e-10


def test_grade_cutoff_enforced(rng):
    n = 3
    a = _random_element("sym", n, 6, rng, rank=1)
    b = _random_element("sym", n, 7, rng, rank=1)
    with pytest.raises(ValueError):
        kn.kn_product(a, b)


def test_grade_mismatch_between_algebras_rejected(rng):
    a = _random_element("wedge", 4, 1, rng)
    b = _random_element("sym", 4, 1, rng)
    with pytest.raises(ValueError):
        kn.kn_product(a, b)
