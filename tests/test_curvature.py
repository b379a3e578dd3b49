"""Curvature operators, traces, sectional curvature, and the four-part split."""

import numpy as np
import pytest

from curvelab import multilinear as ml
from curvelab.curvature import (
    CurvatureOperator,
    TwoPlane,
    decompose,
    four_form_matrix,
    four_form_projection,
    metric_kulkarni,
    ricci,
    scalar_curvature,
    sec,
)
from curvelab.fixtures import fixture_operator

from conftest import lambda2_matrix, random_operator, random_rotation


# ---------------------------------------------------------------------------
# the operator type


def test_operator_symmetrizes_and_records(rng):
    M = rng.uniform(-1, 1, (6, 6))
    M[0, 1], M[1, 0] = 0.0, -0.0            # equal, but not bitwise
    R = CurvatureOperator(4, M)
    assert R.mat.tobytes() == R.mat.T.tobytes()
    assert R.mat.tobytes() == (0.5 * (M + M.T)).tobytes()
    assert R.asymmetry == float(np.max(np.abs(M - M.T)) / 2)
    assert R.N == 6
    A = CurvatureOperator(4, [[0.0, 1.0, 0, 0, 0, 0], [3.0] + [0.0] * 5]
                          + [[0.0] * 6] * 4)
    assert A.asymmetry == 1.0 and A.mat[0, 1] == A.mat[1, 0] == 2.0


def test_operator_takes_a_symmetric_matrix_as_it_is(rng):
    M = rng.uniform(-1, 1, (10, 10))
    M = M + M.T
    M[0, 1] = M[1, 0] = -0.0
    R = CurvatureOperator(5, M)
    assert R.mat is not M and not np.shares_memory(R.mat, M)
    assert R.mat.tobytes() == M.tobytes()
    assert R.asymmetry == 0.0
    R.mat[2, 3] = 7.0
    assert M[2, 3] != 7.0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_operator_rejects_entries_that_are_not_finite(n):
    N = n * (n - 1) // 2
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (0, N - 1), (N - 1, 0)):
            M = np.eye(N)
            M[i, j] = bad
            with pytest.raises(ValueError, match="finite"):
                CurvatureOperator(n, M)
            M[j, i] = bad
            with pytest.raises(ValueError, match="finite"):
                CurvatureOperator(n, M)
    # finite entries whose difference, or sum, overflows
    for upper, lower in ((1e308, -1e308), (1e308, 1.5e308)):
        M = np.eye(N)
        M[0, 1], M[1, 0] = upper, lower
        with pytest.raises(ValueError, match="finite"):
            CurvatureOperator(n, M)


def test_operator_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CurvatureOperator(2, np.eye(1))
    with pytest.raises(ValueError):
        CurvatureOperator(4, np.eye(5))


def test_entry_has_tensor_symmetries(rng):
    R = random_operator(5, rng)
    for (i, j, k, l) in ((1, 2, 3, 4), (2, 5, 1, 3), (1, 4, 1, 4)):
        v = R.entry(i, j, k, l)
        assert R.entry(j, i, k, l) == pytest.approx(-v)
        assert R.entry(i, j, l, k) == pytest.approx(-v)
        assert R.entry(k, l, i, j) == pytest.approx(v)
    assert R.entry(1, 1, 2, 3) == 0.0
    assert R.entry(2, 3, 4, 4) == 0.0


# ---------------------------------------------------------------------------
# planes and sectional curvature


def test_two_plane_validation(rng):
    with pytest.raises(ValueError):
        TwoPlane(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    plane = TwoPlane.orthonormalized(x, y)
    assert abs(np.dot(plane.x, plane.y)) < 1e-12
    assert np.linalg.norm(plane.x) == pytest.approx(1.0, abs=1e-12)


def test_coords_are_the_wedge_formula(rng):
    # oracle: x ^ y has x_i y_j - x_j y_i at the lex slot of (i, j)
    for n in range(3, 8):
        plane = TwoPlane.orthonormalized(rng.standard_normal(n),
                                         rng.standard_normal(n))
        x, y = plane.x, plane.y
        expect = [x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
                  for (i, j) in ml.pair_basis(n)]
        np.testing.assert_allclose(plane.coords(), expect, atol=1e-15)


def test_jacobi_map_is_wedge_with_x(rng):
    # L_x = x . two_forms(n), batched over x, maps y to the coords of x ^ y
    for n in range(3, 8):
        planes = [TwoPlane.orthonormalized(rng.standard_normal(n),
                                           rng.standard_normal(n))
                  for _ in range(4)]
        L = np.tensordot(np.array([p.x for p in planes]), ml.two_forms(n),
                         (1, 1))
        for Lx, plane in zip(L, planes):
            np.testing.assert_allclose(Lx @ plane.y, plane.coords(),
                                       atol=1e-15)


def test_sec_constant_curvature(rng):
    R = fixture_operator("identity", 4)
    for _ in range(5):
        plane = TwoPlane.orthonormalized(rng.standard_normal(4),
                                         rng.standard_normal(4))
        assert sec(R, plane) == pytest.approx(1.0, abs=1e-12)


def test_sec_product_of_spheres():
    R = fixture_operator("s2xs2", 4)
    e = np.eye(4)
    assert sec(R, TwoPlane(e[0], e[1])) == pytest.approx(1.0)
    assert sec(R, TwoPlane(e[2], e[3])) == pytest.approx(1.0)
    assert sec(R, TwoPlane(e[0], e[2])) == pytest.approx(0.0, abs=1e-15)
    assert sec(R, TwoPlane(e[1], e[3])) == pytest.approx(0.0, abs=1e-15)


def test_sec_invariant_under_plane_reframing(rng):
    # the value depends only on the plane, not the chosen orthonormal frame
    R = random_operator(5, rng)
    x = rng.standard_normal(5)
    y = rng.standard_normal(5)
    plane = TwoPlane.orthonormalized(x, y)
    base = sec(R, plane)
    for _ in range(5):
        t = rng.uniform(0, 2 * np.pi)
        u = np.cos(t) * plane.x + np.sin(t) * plane.y
        v = -np.sin(t) * plane.x + np.cos(t) * plane.y
        assert sec(R, TwoPlane(u, v)) == pytest.approx(base, abs=1e-10)


def test_sec_ignores_four_form_component(rng):
    # adding any operator from the four-form subspace leaves sec unchanged
    for n in (4, 5):
        R = random_operator(n, rng)
        omega = four_form_projection(random_operator(n, rng))
        Rp = CurvatureOperator(n, R.mat + omega)
        for _ in range(5):
            plane = TwoPlane.orthonormalized(rng.standard_normal(n),
                                             rng.standard_normal(n))
            assert sec(Rp, plane) == pytest.approx(sec(R, plane), abs=1e-12)


# ---------------------------------------------------------------------------
# traces


def test_ricci_identity_operator():
    for n in (3, 4, 6):
        R = CurvatureOperator.identity(n)
        np.testing.assert_allclose(ricci(R), (n - 1) * np.eye(n), atol=1e-14)
        assert scalar_curvature(R) == pytest.approx(n * (n - 1))


def test_ricci_against_entry_loop(rng):
    # oracle: assemble the trace directly from tensor entries
    for n in range(3, 8):
        R = random_operator(n, rng)
        ric = ricci(R)
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                expect = sum(R.entry(p, i, q, i) for i in range(1, n + 1))
                assert ric[p - 1, q - 1] == pytest.approx(expect, abs=1e-12)
                assert ric[q - 1, p - 1] == pytest.approx(expect, abs=1e-12)


def test_scalar_is_twice_matrix_trace(rng):
    R = random_operator(6, rng)
    assert scalar_curvature(R) == pytest.approx(2.0 * np.trace(R.mat))


# ---------------------------------------------------------------------------
# Kulkarni product with the metric


def test_metric_kulkarni_against_coordinate_formula(rng):
    # oracle: (h ok k)_{ijkl} = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il
    for n in range(3, 8):
        h = rng.standard_normal((n, n))
        h = 0.5 * (h + h.T)
        k = rng.standard_normal((n, n))
        k = 0.5 * (k + k.T)
        R = CurvatureOperator(n, metric_kulkarni(n, h, k))
        for (i, j) in ml.pair_basis(n):
            for (kk, ll) in ml.pair_basis(n):
                expect = (h[i - 1, kk - 1] * k[j - 1, ll - 1]
                          + h[j - 1, ll - 1] * k[i - 1, kk - 1]
                          - h[i - 1, ll - 1] * k[j - 1, kk - 1]
                          - h[j - 1, kk - 1] * k[i - 1, ll - 1])
                assert R.entry(i, j, kk, ll) == pytest.approx(expect,
                                                              abs=1e-12)


def test_metric_kulkarni_with_metric_is_twice_identity():
    for n in (3, 4, 5):
        N = n * (n - 1) // 2
        np.testing.assert_allclose(metric_kulkarni(n, np.eye(n)),
                                   2.0 * np.eye(N), atol=1e-14)


# ---------------------------------------------------------------------------
# four-form projection


def test_four_form_projection_fixes_star():
    star = fixture_operator("hodge-star", 4)
    np.testing.assert_allclose(four_form_projection(star), star.mat,
                               atol=1e-14)


def test_four_form_projection_kills_kulkarni_range(rng):
    # anything of the form g ok h satisfies the first Bianchi identity
    n = 5
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    R = CurvatureOperator(n, metric_kulkarni(n, h))
    assert np.abs(four_form_projection(R)).max() < 1e-12


def test_four_form_projection_is_projection(rng):
    for n in (4, 5, 6):
        R = random_operator(n, rng)
        P1 = four_form_projection(R)
        P2 = four_form_projection(CurvatureOperator(n, P1))
        np.testing.assert_allclose(P1, P2, atol=1e-12)


def test_four_form_entry_is_bianchi_symmetrization(rng):
    # oracle: b_{ijkl} = (R_{ijkl} - R_{ikjl} + R_{iljk}) / 3 on four
    # distinct indices, and 0 where the two pairs share an index
    for n in range(3, 8):
        R = random_operator(n, rng)
        B = CurvatureOperator(n, four_form_projection(R))
        for (i, j) in ml.pair_basis(n):
            for (k, l) in ml.pair_basis(n):
                expect = 0.0
                if len({i, j, k, l}) == 4:
                    expect = (R.entry(i, j, k, l) - R.entry(i, k, j, l)
                              + R.entry(i, l, j, k)) / 3.0
                assert B.entry(i, j, k, l) == pytest.approx(expect,
                                                            abs=1e-12)


@pytest.mark.parametrize("n", [5, 6])
def test_four_form_matrix_hand_entries(n):
    # e_1 ^ e_2 ^ e_3 ^ e_4 couples 12|34 (+1), 13|24 (-1), 14|23 (+1)
    expect = np.zeros((n * (n - 1) // 2,) * 2)
    for p, q, s in (((1, 2), (3, 4), 1.0), ((1, 3), (2, 4), -1.0),
                    ((1, 4), (2, 3), 1.0)):
        a, c = ml.pair_index(n, *p), ml.pair_index(n, *q)
        expect[a, c] = expect[c, a] = s
    assert np.array_equal(four_form_matrix(n), expect)


def test_four_form_matrix_needs_four_dimensions():
    with pytest.raises(ValueError):
        four_form_matrix(3)


# ---------------------------------------------------------------------------
# the four-part decomposition


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_decomposition_reconstructs_and_is_orthogonal(n, rng):
    R = random_operator(n, rng)
    dec = decompose(R)
    mats = [dec.part(name) for name in ("U", "L", "W", "W4")]
    assert np.abs(sum(mats) - R.mat).max() < 1e-10
    for a in range(4):
        for b in range(a + 1, 4):
            na = np.linalg.norm(mats[a])
            nb = np.linalg.norm(mats[b])
            if na > 1e-14 and nb > 1e-14:
                inner = abs(np.sum(mats[a] * mats[b]))
                assert inner / (na * nb) < 1e-10
    assert dec.reconstruction_residual < 1e-10
    assert dec.orthogonality_residual < 1e-10


@pytest.mark.parametrize("n", [4, 5, 6])
def test_decomposition_trace_conditions(n, rng):
    R = random_operator(n, rng)
    dec = decompose(R)
    assert scalar_curvature(dec.operator("L")) == pytest.approx(0.0, abs=1e-10)
    assert np.abs(ricci(dec.operator("W"))).max() < 1e-10
    assert np.abs(ricci(dec.operator("W4"))).max() < 1e-10
    # first Bianchi holds for every part except the four-form one
    for name in ("U", "L", "W"):
        assert np.abs(four_form_projection(dec.operator(name))).max() < 1e-10
    # the four-form part is its own projection
    np.testing.assert_allclose(four_form_projection(dec.operator("W4")),
                               dec.part("W4"), atol=1e-10)


def test_decomposition_of_fixtures():
    # each named fixture is a pure example of one part
    for n in (4, 5, 6):
        dec = decompose(fixture_operator("scal-part", n))
        assert np.linalg.norm(dec.part("U")) > 0.1
        for other in ("L", "W", "W4"):
            assert np.linalg.norm(dec.part(other)) < 1e-12

        dec = decompose(fixture_operator("traceless-ricci", n))
        assert np.linalg.norm(dec.part("L")) > 0.1
        for other in ("U", "W", "W4"):
            assert np.linalg.norm(dec.part(other)) < 1e-12

        dec = decompose(fixture_operator("weyl-type", n))
        assert np.linalg.norm(dec.part("W")) > 0.1
        for other in ("U", "L", "W4"):
            assert np.linalg.norm(dec.part(other)) < 1e-12

        dec = decompose(fixture_operator("four-form", n))
        assert np.linalg.norm(dec.part("W4")) > 0.1
        for other in ("U", "L", "W"):
            assert np.linalg.norm(dec.part(other)) < 1e-12


def test_decomposition_identity_scal():
    dec = decompose(fixture_operator("identity", 4))
    assert dec.scal == pytest.approx(12.0)
    np.testing.assert_allclose(dec.part("U"), np.eye(6), atol=1e-14)


def test_decomposition_n3_degraded(rng):
    R = random_operator(3, rng)
    dec = decompose(R)
    assert dec.degraded_n3
    assert np.linalg.norm(dec.part("W")) < 1e-12
    assert np.linalg.norm(dec.part("W4")) < 1e-12
    total = dec.part("U") + dec.part("L")
    np.testing.assert_allclose(total, R.mat, atol=1e-10)


def test_decompose_rejects_n_below_three():
    with pytest.raises(ValueError):
        CurvatureOperator(2, np.eye(1))


@pytest.mark.filterwarnings("error")
def test_decompose_scales_past_the_square_root_of_overflow(rng):
    # entries of 1e200 square to inf; the parts are linear in R and the
    # residuals are scale-free
    c = 1e200
    ops = [random_operator(n, rng) for n in (3, 4, 5, 6)]
    for R in ops + [CurvatureOperator(4, np.eye(6))]:
        small = decompose(R)
        big = decompose(CurvatureOperator(R.n, c * R.mat))
        for name in ("U", "L", "W", "W4"):
            np.testing.assert_allclose(
                big.part(name), c * small.part(name), rtol=1e-14,
                atol=1e-14 * c * np.max(np.abs(R.mat)))
        for res in ("orthogonality_residual", "reconstruction_residual"):
            assert np.isfinite(getattr(big, res))
        assert big.orthogonality_residual == pytest.approx(
            small.orthogonality_residual, abs=1e-14)


def test_decomposition_parts_are_decomposition_fixed_points(rng):
    R = random_operator(5, rng)
    dec = decompose(R)
    for name in ("U", "L", "W", "W4"):
        sub = decompose(dec.operator(name))
        np.testing.assert_allclose(sub.part(name), dec.part(name), atol=1e-10)
        for other in ("U", "L", "W", "W4"):
            if other != name:
                assert np.linalg.norm(sub.part(other)) < 1e-10


# ---------------------------------------------------------------------------
# equivariance


def test_lambda2_matrix_is_orthogonal_for_rotations(rng):
    n = 5
    Q = random_rotation(n, rng)
    L = lambda2_matrix(n, Q)
    np.testing.assert_allclose(L @ L.T, np.eye(n * (n - 1) // 2), atol=1e-12)


def test_sec_transforms_with_rotated_planes(rng):
    n = 4
    R = random_operator(n, rng)
    Q = random_rotation(n, rng)
    RQ = CurvatureOperator(n, lambda2_matrix(n, Q).T @ R.mat
                           @ lambda2_matrix(n, Q))
    for _ in range(5):
        plane = TwoPlane.orthonormalized(rng.standard_normal(n),
                                         rng.standard_normal(n))
        rotated = TwoPlane(Q @ plane.x, Q @ plane.y)
        assert sec(RQ, plane) == pytest.approx(sec(R, rotated), abs=1e-10)


def test_decompose_is_equivariant(rng):
    # conjugating then decomposing equals decomposing then conjugating
    n = 5
    R = random_operator(n, rng)
    Q = random_rotation(n, rng)
    L = lambda2_matrix(n, Q)
    dec_R = decompose(R)
    dec_RQ = decompose(CurvatureOperator(n, L.T @ R.mat @ L))
    for name in ("U", "L", "W", "W4"):
        np.testing.assert_allclose(dec_RQ.part(name),
                                   L.T @ dec_R.part(name) @ L, atol=1e-9)
