"""Assembly of the curvature term and its structural properties."""

from math import comb, factorial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvelab import multilinear as ml
from curvelab import weitzenbock as wz
from curvelab.curvature import CurvatureOperator, ricci
from curvelab.fixtures import fixture_operator
from curvelab.multilinear import pair_index

from conftest import (berger_diagonal, dense_generators, lambda2_matrix,
                      random_operator, random_rotation, rep_matrix,
                      wedge_coords)


def test_output_is_symmetric_with_recorded_defect(rng):
    R = random_operator(4, rng)
    K = wz.curvature_term(R, ml.build_exterior(4, 2))
    np.testing.assert_array_equal(K.mat, K.mat.T)


def test_dimension_mismatch_rejected(rng):
    R = random_operator(4, rng)
    with pytest.raises(ValueError):
        wz.curvature_term(R, ml.build_exterior(5, 2))


def test_linearity_in_the_operator(rng):
    space = ml.build_traceless(4, 2)
    R1 = random_operator(4, rng)
    R2 = random_operator(4, rng)
    a, b = rng.standard_normal(2)
    combo = CurvatureOperator(4, a * R1.mat + b * R2.mat)
    lhs = wz.curvature_term(combo, space).mat
    rhs = (a * wz.curvature_term(R1, space).mat
           + b * wz.curvature_term(R2, space).mat)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_determinism_of_assembly(rng):
    R = random_operator(5, rng)
    space = ml.build_symmetric(5, 3)
    K1 = wz.curvature_term(R, space).mat
    K2 = wz.curvature_term(R, space).mat
    np.testing.assert_array_equal(K1, K2)


# ---------------------------------------------------------------------------
# assembly against a dense reference


def _random_mat(n, rng):
    N = n * (n - 1) // 2
    M = rng.standard_normal((N, N))
    return M + M.T


def _dense_reference(Rmat, space):
    """-sum_ab R_ab D_a D_b from dense copies of the generators."""
    gens = dense_generators(space)
    K = np.zeros((space.dim, space.dim))
    for a, Da in enumerate(gens):
        for b, Db in enumerate(gens):
            K -= Rmat[a, b] * (Da @ Db)
    return K


def _assert_matches(K, ref):
    assert np.abs(K - ref).max(initial=0.0) <= (
        1e-13 * np.abs(ref).max(initial=0.0))


@pytest.mark.parametrize("n,p", [(5, 0), (5, 1), (5, 4), (5, 5), (6, 3)])
def test_exterior_assembly_matches_dense_reference(n, p, rng):
    space = ml.build_exterior(n, p)
    R = CurvatureOperator(n, _random_mat(n, rng))
    _assert_matches(wz.curvature_term(R, space).mat,
                    _dense_reference(R.mat, space))


@pytest.mark.parametrize("n,p", [(2, 1), (2, 4), (3, 0), (3, 4), (5, 2)])
def test_symmetric_assembly_matches_dense_reference(n, p, rng):
    # CurvatureOperator needs n >= 3; curvature_term reads only n and mat
    R = SimpleNamespace(n=n, mat=_random_mat(n, rng))
    space = ml.build_symmetric(n, p)
    _assert_matches(wz.curvature_term(R, space).mat,
                    _dense_reference(R.mat, space))


@pytest.mark.parametrize("n,p", [(3, 4), (4, 3), (5, 2)])
def test_traceless_assembly_matches_dense_reference(n, p, rng):
    R = CurvatureOperator(n, _random_mat(n, rng))
    space = ml.build_traceless(n, p)
    C = space.change_of_basis
    ref = C @ _dense_reference(R.mat, ml.build_symmetric(n, p)) @ C.T
    _assert_matches(wz.curvature_term(R, space).mat, ref)


@pytest.mark.parametrize("kind,n,p", [
    ("traceless", 10, 4), ("symmetric", 10, 4), ("symmetric", 8, 5),
    ("exterior", 10, 5), ("traceless", 12, 3),
    ("traceless", 4, 0), ("traceless", 4, 1), ("traceless", 1, 0),
    ("traceless", 1, 2), ("traceless", 1, 5),
])
def test_reflector_update_matches_dense_conjugation(kind, n, p, rng):
    # Harm^p: the rank-2k update against C K C^T on the ambient K, exactly
    # symmetric; p < 2 (k = 0) and n = 1 (dim 0, tau = 0) included.  Sym^p
    # and the wedge: the assembled K itself, never symmetrized.  The full
    # split is block diagonal, its leading block similar to K(R, Sym^{p-2}),
    # for any symmetric R: K commutes with the r^2 map.
    R = SimpleNamespace(n=n, mat=_random_mat(n, rng))
    space = getattr(ml, "build_" + kind)(n, p)
    K = wz.curvature_term(R, space)
    ambient = wz._assemble(R.mat, ml.build_symmetric(n, p)
                           if kind == "traceless" else space)
    if kind == "traceless":
        C = space.change_of_basis
        ref = C @ ambient @ C.T
        scale = np.abs(ambient).max(initial=0.0)
        assert np.abs(K.mat - ref).max(initial=0.0) <= 1e-14 * scale
        S = wz._harmonic_split(ambient, space.reflectors)
        k = space.reflectors[1].shape[0]
        assert np.abs(S[:k, k:]).max(initial=0.0) <= 1e-13 * scale
        if k:
            lower = wz._assemble(R.mat, ml.build_symmetric(n, p - 2))
            gap = (np.sort(np.linalg.eigvalsh(S[:k, :k]))
                   - np.linalg.eigvalsh(lower))
            assert np.abs(gap).max() <= 1e-12 * scale
    else:
        np.testing.assert_array_equal(K.mat, ambient)
    assert K.mat.shape == (space.dim, space.dim)
    np.testing.assert_array_equal(K.mat, K.mat.T)


def _four_form(n, rng):
    """A random pure four-form on two-forms of R^n, with exact zeros off
    its support: entry b_q val at each product e_a ^ e_c = val e_q."""
    out, a, c, val = ml.product_table("exterior", n, 2, 2)
    N = n * (n - 1) // 2
    W = np.zeros((N, N))
    W[a, c] = val * rng.standard_normal(ml.dim_exterior(n, 4))[out]
    return W


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["exterior", "symmetric"]), n=st.integers(3, 6),
       p=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_assembly_matches_dense_reference_and_misses_four_forms(kind, n, p,
                                                                seed):
    # Gaussian symmetric R, no Bianchi identity; Sym^p, like sec, cannot
    # see a four-form, and its K is then exactly zero
    assume(kind == "symmetric" or p <= n)
    rng = np.random.default_rng(seed)
    space = getattr(ml, "build_" + kind)(n, p)
    R = CurvatureOperator(n, _random_mat(n, rng))
    K = wz.curvature_term(R, space)
    _assert_matches(K.mat, _dense_reference(R.mat, space))
    np.testing.assert_array_equal(K.mat, K.mat.T)
    if kind == "symmetric":
        omega = CurvatureOperator(n, _four_form(n, rng))
        np.testing.assert_array_equal(
            wz.curvature_term(omega, space).mat, np.zeros(K.mat.shape))


# ---------------------------------------------------------------------------
# the trivial representations: vectors and covectors


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_vector_representations_give_ricci(n, rng):
    for _ in range(3):
        R = random_operator(n, rng)
        ric = ricci(R)
        K_wedge = wz.curvature_term(R, ml.build_exterior(n, 1)).mat
        K_sym = wz.curvature_term(R, ml.build_symmetric(n, 1)).mat
        K_sym0 = wz.curvature_term(R, ml.build_traceless(n, 1)).mat
        assert np.abs(K_wedge - ric).max() < 1e-10
        assert np.abs(K_sym - ric).max() < 1e-10
        # the degree-1 traceless basis may be any orthonormal rotation of
        # the coordinate one; compare after undoing it
        C = ml.build_traceless(n, 1).change_of_basis
        assert np.abs(C.T @ K_sym0 @ C - ric).max() < 1e-10


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_top_forms_give_ricci_up_to_duality(n, rng):
    # identify (n-1)-forms with vectors: the complement of j maps to
    # (-1)^(j-1) e_j, matching e_j wedge (complement) = (-1)^(j-1) volume
    space = ml.build_exterior(n, n - 1)
    P = np.zeros((n, n))
    for col, I in enumerate(ml.wedge_basis(n, n - 1)):
        j = next(m for m in range(1, n + 1) if m not in I)
        P[j - 1, col] = (-1.0) ** (j - 1)
    for _ in range(3):
        R = random_operator(n, rng)
        K = wz.curvature_term(R, space).mat
        assert np.abs(P @ K @ P.T - ricci(R)).max() < 1e-10


# ---------------------------------------------------------------------------
# exact eigenvalues for the round operator


def test_round_operator_is_casimir_on_forms():
    n = 5
    R = fixture_operator("identity", n)
    for p in (1, 2, 3, 4):
        K = wz.curvature_term(R, ml.build_exterior(n, p)).mat
        np.testing.assert_allclose(K, p * (n - p) * np.eye(comb(n, p)),
                                   atol=1e-12)


def test_round_operator_is_casimir_on_harmonics():
    n = 4
    R = fixture_operator("identity", n)
    for p in (1, 2, 3):
        space = ml.build_traceless(n, p)
        K = wz.curvature_term(R, space).mat
        np.testing.assert_allclose(K, p * (p + n - 2) * np.eye(space.dim),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# quadratic forms at the reference elements


def test_circle_harmonic_quadratic_form_round_case():
    # <K phi_p, phi_p> = (n + p - 2) 2^(p-1) p^2 (p-1)! for the round operator
    for (n, p) in ((4, 2), (5, 3), (6, 4)):
        R = fixture_operator("scal-part", n)
        space = ml.build_traceless(n, p)
        K = wz.curvature_term(R, space)
        v = space.change_of_basis @ ml.circle_harmonic(n, p)
        expect = (n + p - 2) * 2.0 ** (p - 1) * p * p * factorial(p - 1)
        assert wz.quadratic_form(K, v) == pytest.approx(expect, abs=1e-9)


def test_decomposable_wedge_quadratic_form_round_case():
    # <K beta_p, beta_p> = p (n - p) at beta_p = e_1 wedge ... wedge e_p
    for (n, p) in ((5, 2), (6, 3)):
        R = fixture_operator("scal-part", n)
        space = ml.build_exterior(n, p)
        K = wz.curvature_term(R, space)
        v = wedge_coords(space, [(1.0, tuple(range(1, p + 1)))])
        assert wz.quadratic_form(K, v) == pytest.approx(p * (n - p), abs=1e-9)


def test_bilinear_form_consistency(rng):
    space = ml.build_exterior(4, 2)
    K = wz.curvature_term(random_operator(4, rng), space)
    v = rng.standard_normal(space.dim)
    w = rng.standard_normal(space.dim)
    assert wz.bilinear_form(K, v, w) == pytest.approx(
        wz.bilinear_form(K, w, v), abs=1e-12)
    assert wz.bilinear_form(K, v, v) == pytest.approx(
        wz.quadratic_form(K, v), abs=1e-12)


# ---------------------------------------------------------------------------
# vanishing on the four-form subspace


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (4, 4), (5, 2), (5, 3)])
def test_four_form_operators_annihilate_traceless_symmetric(n, p, rng):
    from curvelab.curvature import four_form_projection
    R = CurvatureOperator(n, four_form_projection(random_operator(n, rng)))
    K = wz.curvature_term(R, ml.build_traceless(n, p)).mat
    assert np.abs(K).max() < 1e-10


def test_star_acts_by_four_times_itself_on_two_forms():
    star = fixture_operator("hodge-star", 4)
    K = wz.curvature_term(star, ml.build_exterior(4, 2)).mat
    np.testing.assert_allclose(K, 4.0 * star.mat, atol=1e-12)


# ---------------------------------------------------------------------------
# positivity and equivariance


def test_positive_operators_give_positive_terms(rng):
    # R positive-definite makes K(R, V) positive-semidefinite in every rep:
    # K = sum over eigenvalues of -(lambda) W^2 with W skew
    n = 4
    M = rng.standard_normal((6, 6))
    R = CurvatureOperator(n, M @ M.T + 0.1 * np.eye(6))
    for space in (ml.build_exterior(n, 1), ml.build_exterior(n, 2),
                  ml.build_exterior(n, 3), ml.build_traceless(n, 2),
                  ml.build_traceless(n, 3)):
        K = wz.curvature_term(R, space)
        assert K.lambda_min() > 0.0


def test_equivariance_under_rotations(rng):
    n = 4
    R = random_operator(n, rng)
    Q = random_rotation(n, rng)
    L = lambda2_matrix(n, Q)
    RQ = CurvatureOperator(n, L.T @ R.mat @ L)
    for build, p in ((ml.build_exterior, 2), (ml.build_symmetric, 2)):
        space = build(n, p)
        rho = rep_matrix(space, Q)
        K = wz.curvature_term(R, space).mat
        KQ = wz.curvature_term(RQ, space).mat
        assert np.abs(KQ - rho.T @ K @ rho).max() < 1e-8


# ---------------------------------------------------------------------------
# block structure of the full symmetric power


def _ambient_term(R, p):
    return wz.curvature_term(R, ml.build_symmetric(R.n, p))


def test_block_structure_dimensions_and_offdiagonal(rng):
    R = random_operator(5, rng)
    bs = wz.block_structure(R, _ambient_term(R, 4))
    assert bs.degrees == [4, 2, 0]
    assert bs.block_dims == [55, 14, 1]
    assert bs.offdiag_max < 1e-9


def test_block_structure_spectrum_is_union_of_blocks(rng):
    # direct-sum rule: the full spectrum is the multiset union of the
    # per-degree block spectra
    n, p = 4, 3
    R = random_operator(n, rng)
    K = _ambient_term(R, p)
    bs = wz.block_structure(R, K)
    full = np.sort(np.linalg.eigvalsh(K.mat))
    merged = np.sort(np.concatenate([bs.spectra[d] for d in bs.degrees]))
    np.testing.assert_allclose(full, merged, atol=1e-8)


@pytest.mark.parametrize("n,p", [(4, 4), (6, 6), (8, 5)])
def test_block_structure_blocks_match_direct_assembly(n, p, rng):
    # reference: C K(R, Sym^d) C^T formed densely, no reflector update
    R = random_operator(n, rng)
    K = _ambient_term(R, p)
    bs = wz.block_structure(R, K)
    assert bs.degrees == list(range(p, -1, -2))
    scale = max(1.0, np.abs(K.mat).max())
    for d, dim in zip(bs.degrees, bs.block_dims):
        C = ml.build_traceless(n, d).change_of_basis
        want = np.linalg.eigvalsh(C @ _ambient_term(R, d).mat @ C.T)
        assert dim == want.size
        np.testing.assert_allclose(np.sort(bs.spectra[d]), want,
                                   rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("coupled,match", [
    (True, "off-diagonal"), (False, "spectrum mismatch"),
], ids=["coupled", "leading"])
def test_block_structure_rejects_a_broken_tower(coupled, match, rng):
    # Sym^4 R^4 = r^2 Sym^2 + Harm^4 on orthonormal bases Q1, Q2.  A
    # symmetric E coupling the two breaks the off-diagonal bound; a
    # perturbation inside r^2 Sym^2 alone keeps the split block diagonal
    # but moves the leading spectrum off the lower degrees' union.
    n, p = 4, 4
    R = random_operator(n, rng)
    K = _ambient_term(R, p)
    Q1 = np.linalg.qr(ml.r2_multiplication_matrix(n, p - 2))[0]
    Q2 = ml.build_traceless(n, p).change_of_basis.T
    eps = 1e-6 * np.abs(K.mat).max()
    if coupled:
        B = rng.standard_normal((Q1.shape[1], Q2.shape[1]))
        E = eps * (Q1 @ B @ Q2.T + Q2 @ B.T @ Q1.T)
    else:
        S = rng.standard_normal((Q1.shape[1],) * 2)
        E = eps * Q1 @ (S + S.T) @ Q1.T
        k = Q1.shape[1]
        split = wz._harmonic_split(K.mat + E,
                                   ml.build_traceless(n, p).reflectors)
        assert np.abs(split[:k, k:]).max() <= 1e-13 * np.abs(K.mat).max()
    broken = wz.SymmetricEndomorphism(K.space, K.mat + E)
    with pytest.raises(RuntimeError, match=match):
        wz.block_structure(R, broken)


def test_block_structure_rejects_a_term_off_the_ambient_power(rng):
    R = random_operator(4, rng)
    with pytest.raises(ValueError):
        wz.block_structure(R, wz.curvature_term(R, ml.build_traceless(4, 3)))
    with pytest.raises(ValueError):
        wz.block_structure(random_operator(5, rng), _ambient_term(R, 3))


# ---------------------------------------------------------------------------
# the quadratic diagonal tied to the Ricci eigenvectors


def test_ricci_eigen_diagonal(rng):
    # for each Ricci eigenpair (lambda, v), the quadratic polynomial
    # (v.x)^2 - r^2/n pairs with K(R, Sym^2_0) to exactly 4 lambda
    n = 4
    for _ in range(5):
        R = random_operator(n, rng)
        rows = berger_diagonal(R)
        lams = np.sort([lam for (lam, _, _) in rows])
        np.testing.assert_allclose(lams, np.sort(np.linalg.eigvalsh(ricci(R))),
                                   atol=1e-10)
        for (lam, vec, val) in rows:
            assert val == pytest.approx(4.0 * lam, abs=1e-8)


def test_ricci_eigen_diagonal_identity_operator():
    rows = berger_diagonal(fixture_operator("identity", 5))
    for (lam, vec, val) in rows:
        assert lam == pytest.approx(4.0)
        assert val == pytest.approx(16.0, abs=1e-10)
