"""Representation spaces, polynomial calculus, and rotation generators."""

import math
from math import comb, factorial

import numpy as np
import pytest
import scipy.linalg

from curvelab import multilinear as ml

from conftest import (Polynomial, circle_harmonic, coords_to_polynomial,
                      dense_generators, harmonic_projection, laplacian,
                      polynomial_coords, product_table_loop, r_squared,
                      random_rotation, rep_matrix, so_generator,
                      substitute_linear, wedge_coords)


# ---------------------------------------------------------------------------
# pair basis and generators


def test_pair_basis_is_lexicographic():
    assert ml.pair_basis(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for n in range(2, 9):
        pairs = ml.pair_basis(n)
        assert len(pairs) == n * (n - 1) // 2
        assert pairs == sorted(pairs)
        for a, (i, j) in enumerate(pairs):
            assert i < j
            assert ml.pair_index(n, i, j) == a


def test_two_forms_is_one_read_only_array_per_n():
    for n in (3, 4, 6):
        E = ml.two_forms(n)
        assert ml.two_forms(n) is E
        assert not E.flags.writeable
        with pytest.raises(ValueError):
            E[0, 0, 1] = 2.0
        for a, (i, j) in enumerate(ml.pair_basis(n)):
            assert E[a, i - 1, j - 1] == 1.0 and E[a, j - 1, i - 1] == -1.0
            assert np.count_nonzero(E[a]) == 2


def test_so_generator_action_on_basis_vectors():
    # the generator for the pair (i, j) sends e_j to e_i and e_i to -e_j
    for n in (3, 5):
        for (i, j) in ml.pair_basis(n):
            E = so_generator(n, i, j)
            np.testing.assert_array_equal(E @ np.eye(n)[j - 1], np.eye(n)[i - 1])
            np.testing.assert_array_equal(E @ np.eye(n)[i - 1], -np.eye(n)[j - 1])
            np.testing.assert_array_equal(E + E.T, np.zeros((n, n)))
            assert np.linalg.norm(E) == pytest.approx(math.sqrt(2.0))


def test_generator_commutators_close():
    # [E_ij, E_kl] is again a (signed) generator or zero; check by expansion
    n = 5
    basis = {pair: so_generator(n, *pair) for pair in ml.pair_basis(n)}
    flat = np.array([basis[p].ravel() for p in ml.pair_basis(n)])
    for (a, Ea) in basis.items():
        for (b, Eb) in basis.items():
            C = Ea @ Eb - Eb @ Ea
            coeff, res, *_ = np.linalg.lstsq(flat.T, C.ravel(), rcond=None)
            assert np.abs(flat.T @ coeff - C.ravel()).max() < 1e-12
            np.testing.assert_allclose(coeff, np.round(coeff), atol=1e-12)


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("p", range(0, 7))
def test_dimension_formulas(n, p):
    assert ml.dim_exterior(n, p) == comb(n, p)
    assert ml.dim_symmetric(n, p) == comb(n + p - 1, p)
    expect = comb(n + p - 1, p) - (comb(n + p - 3, p - 2) if p >= 2 else 0)
    assert ml.build_traceless(n, p).dim == expect


def test_basis_orderings():
    assert ml.wedge_basis(4, 2) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                                    (3, 4))
    mons = ml.monomial_basis(3, 2)
    # first exponent counts down: x1^2 first, then x1 x2, ...
    assert mons == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1),
                    (0, 0, 2))
    assert len(ml.monomial_basis(5, 3)) == comb(7, 3)


# ---------------------------------------------------------------------------
# polynomials: the dict oracle of conftest.py, and circle_harmonic through it


def test_polynomial_requires_homogeneous():
    Polynomial(3, {(2, 0, 0): 1.0, (0, 1, 1): -2.0})
    with pytest.raises(ValueError):
        Polynomial(3, {(2, 0, 0): 1.0, (1, 0, 0): 1.0})


def test_pairing_is_apolar_inner_product(rng):
    # oracle: <f, g> = f(d/dx) applied to g, evaluated at zero
    n, p = 3, 3

    def apolar(f, g):
        total = 0.0
        for ef, cf in f.coeffs.items():
            for eg, cg in g.coeffs.items():
                if ef == eg:
                    total += cf * cg * math.prod(factorial(e) for e in ef)
        return total

    for _ in range(5):
        f = Polynomial(
            n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})
        g = Polynomial(
            n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})
        assert f.pairing(g) == pytest.approx(apolar(f, g), abs=1e-12)
        assert f.pairing(g) == pytest.approx(g.pairing(f), abs=1e-12)


def test_rotation_action_is_derivative_of_rotation_flow(rng):
    # with D = x_i d_j - x_j d_i, the flow of exp(t E_ij) pulled through f
    # satisfies d/dt f(exp(t E_ij) x) |_0 = -(D f)(x)
    n, p, h = 4, 3, 1e-6
    f = Polynomial(
        n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})
    x = rng.standard_normal(n)
    for (i, j) in ((1, 2), (2, 4), (3, 4)):
        E = so_generator(n, i, j)
        num = (f.evaluate(scipy.linalg.expm(h * E) @ x)
               - f.evaluate(scipy.linalg.expm(-h * E) @ x)) / (2 * h)
        Df = f.rotation_action(i, j)
        assert num == pytest.approx(-Df.evaluate(x), abs=1e-6)


def test_rotation_actions_satisfy_bracket(rng):
    n, p = 4, 3
    f = Polynomial(
        n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})
    # [D_12, D_23] f = D_13 f  (from [E_12, E_23] = E_13: e3 -> e1, e1 -> -e3)
    lhs = (f.rotation_action(2, 3).rotation_action(1, 2)
           - f.rotation_action(1, 2).rotation_action(2, 3))
    rhs = f.rotation_action(1, 3)
    for e in set(lhs.coeffs) | set(rhs.coeffs):
        assert lhs.coeffs.get(e, 0.0) == pytest.approx(rhs.coeffs.get(e, 0.0),
                                                       abs=1e-12)


def test_laplacian_small_cases():
    n = 3
    f = Polynomial(n, {(2, 0, 0): 1.0})             # x1^2
    assert laplacian(f).coeffs == {(0, 0, 0): pytest.approx(2.0)}
    r2 = r_squared(n)
    assert laplacian(r2).coeffs == {(0, 0, 0): pytest.approx(2.0 * n)}
    h = Polynomial(n, {(1, 1, 0): 1.0})             # harmonic
    assert laplacian(h).coeffs == {}


def test_substitute_linear_matches_pointwise(rng):
    n, p = 4, 3
    f = Polynomial(
        n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})
    Q = rng.standard_normal((n, n))
    g = substitute_linear(f, Q)        # substitutes x -> Q^T x
    for _ in range(5):
        x = rng.standard_normal(n)
        assert g.evaluate(x) == pytest.approx(f.evaluate(Q.T @ x), rel=1e-10)


def test_circle_harmonic_is_real_part_of_complex_power(rng):
    for p in (2, 3, 5):
        f = coords_to_polynomial(ml.build_symmetric(4, p),
                                 circle_harmonic(4, p))
        for _ in range(4):
            x = rng.standard_normal(4)
            expect = ((x[0] + 1j * x[1]) ** p).real
            assert f.evaluate(x) == pytest.approx(expect, rel=1e-12)
        assert laplacian(f).coeffs == {}


@pytest.mark.parametrize("p", range(1, 9))
def test_circle_harmonic_norm(p):
    # squared norm of Re(x1 + i x2)^p under the apolar pairing
    f = coords_to_polynomial(ml.build_symmetric(4, p),
                             circle_harmonic(4, p))
    assert f.pairing(f) == pytest.approx(2.0 ** (p - 1) * factorial(p))


def test_harmonic_projection_of_fourth_power():
    # projecting x1^4 (n = 4): x1^4 - (6/8) r^2 x1^2 + (3/48) r^4
    n = 4
    f = Polynomial(n, {(4, 0, 0, 0): 1.0})
    proj = harmonic_projection(f)
    r2 = r_squared(n)
    expect = {}
    for e, c in f.coeffs.items():
        expect[e] = expect.get(e, 0.0) + c
    x1sq = Polynomial(n, {(2, 0, 0, 0): 1.0})
    for e, c in (r2 * x1sq).coeffs.items():
        expect[e] = expect.get(e, 0.0) - (6.0 / 8.0) * c
    for e, c in (r2 * r2).coeffs.items():
        expect[e] = expect.get(e, 0.0) + (3.0 / 48.0) * c
    for e in set(expect) | set(proj.coeffs):
        assert proj.coeffs.get(e, 0.0) == pytest.approx(expect.get(e, 0.0),
                                                        abs=1e-12)


def test_harmonic_projection_properties(rng):
    n, p = 4, 5
    f = Polynomial(
        n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})
    proj = harmonic_projection(f)
    lap = laplacian(proj)
    assert max((abs(c) for c in lap.coeffs.values()), default=0.0) < 1e-10
    again = harmonic_projection(proj)
    for e in set(proj.coeffs) | set(again.coeffs):
        assert again.coeffs.get(e, 0.0) == pytest.approx(
            proj.coeffs.get(e, 0.0), abs=1e-10)
    # harmonic input is returned unchanged
    h = coords_to_polynomial(ml.build_symmetric(n, p),
                             circle_harmonic(n, p))
    hp = harmonic_projection(h)
    for e in set(h.coeffs) | set(hp.coeffs):
        assert hp.coeffs.get(e, 0.0) == pytest.approx(h.coeffs.get(e, 0.0),
                                                      abs=1e-12)


# ---------------------------------------------------------------------------
# representation spaces


def _as_dense(space):
    """Dense generators.  A traceless space carries none of its own: its
    generators are the ambient ones conjugated by the change of basis."""
    if space.kind == "traceless":
        C = space.change_of_basis
        amb = _as_dense(ml.build_symmetric(space.n, space.p))
        return {pair: C @ D @ C.T for pair, D in amb.items()}
    return dict(zip(ml.pair_basis(space.n), dense_generators(space)))


@pytest.mark.parametrize("build,n,p", [
    (ml.build_exterior, 4, 2),
    (ml.build_exterior, 5, 3),
    (ml.build_symmetric, 4, 3),
    (ml.build_symmetric, 3, 4),
    (ml.build_traceless, 4, 3),
    (ml.build_traceless, 5, 2),
])
def test_generators_are_skew(build, n, p):
    space = build(n, p)
    for pair, D in _as_dense(space).items():
        assert np.abs(D + D.T).max() < 1e-12


@pytest.mark.parametrize("build,n,p", [
    (ml.build_exterior, 4, 2),
    (ml.build_symmetric, 4, 2),
    (ml.build_traceless, 4, 3),
])
def test_bracket_compatibility(build, n, p):
    # [D_a, D_b] must represent the so(n) bracket [E_a, E_b]
    space = build(n, p)
    dense = _as_dense(space)
    pairs = ml.pair_basis(n)
    gens = {pair: so_generator(n, *pair) for pair in pairs}
    flat = np.array([gens[q].ravel() for q in pairs])
    for a in pairs:
        for b in pairs:
            C = gens[a] @ gens[b] - gens[b] @ gens[a]
            coeff = np.linalg.lstsq(flat.T, C.ravel(), rcond=None)[0]
            want = sum(c * dense[q] for c, q in zip(coeff, pairs))
            got = dense[a] @ dense[b] - dense[b] @ dense[a]
            assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("n,p", [(4, 2), (5, 3), (6, 2)])
def test_exterior_rep_matrix_is_minor_matrix(n, p, rng):
    # oracle: entries of the p-th exterior power of Q are p x p minors
    space = ml.build_exterior(n, p)
    Q = rng.standard_normal((n, n))
    M = rep_matrix(space, Q)
    basis = ml.wedge_basis(n, p)
    for a, rows in enumerate(basis):
        for b, cols in enumerate(basis):
            ridx = [r - 1 for r in rows]
            cidx = [c - 1 for c in cols]
            assert M[a, b] == pytest.approx(
                np.linalg.det(Q[np.ix_(ridx, cidx)]), abs=1e-10)


@pytest.mark.parametrize("build,n,p,tol", [
    (ml.build_exterior, 4, 2, 1e-9),
    (ml.build_symmetric, 4, 3, 1e-9),
    (ml.build_traceless, 4, 2, 1e-9),
])
def test_exponential_equivariance(build, n, p, tol, rng):
    # exp of the represented generator equals the representation of exp:
    # the generators follow the vector convention D(e_j wedge ...) =
    # e_i wedge ..., so rep(exp(A)) = exp(+D)
    space = build(n, p)
    dense = _as_dense(space)
    pairs = ml.pair_basis(n)
    coeffs = rng.standard_normal(len(pairs))
    A = sum(c * so_generator(n, *q) for c, q in zip(coeffs, pairs))
    D = sum(c * dense[q] for c, q in zip(coeffs, pairs))
    lhs = scipy.linalg.expm(D)
    rhs = rep_matrix(space, scipy.linalg.expm(A))
    assert np.abs(lhs - rhs).max() < tol


def test_symmetric_generator_entries_match_ladder_formula():
    # moving one power from slot j to slot i carries sqrt(l_j (l_i + 1))
    n, p = 3, 2
    space = ml.build_symmetric(n, p)
    D = _as_dense(space)[(1, 2)]
    basis = ml.monomial_basis(n, p)
    src = basis.index((1, 1, 0))
    dst = basis.index((2, 0, 0))
    assert D[dst, src] == pytest.approx(math.sqrt(1 * 2))
    dst2 = basis.index((0, 2, 0))
    assert D[dst2, src] == pytest.approx(-math.sqrt(1 * 2))


@pytest.mark.parametrize("n,p", [(1, 0), (1, 3), (3, 1), (3, 2), (4, 4),
                                 (10, 4), (12, 3)])
def test_traceless_reflectors_give_the_change_of_basis(n, p):
    # Q = I - V T V^T is orthogonal, V unit lower trapezoidal, T upper
    # triangular, and the harmonic basis is Q[:, k:]^T
    space = ml.build_traceless(n, p)
    V, T = space.reflectors
    k = T.shape[0]
    assert k == ml.dim_symmetric(n, p - 2)
    np.testing.assert_array_equal(V, np.tril(V))
    np.testing.assert_array_equal(np.diag(V), np.ones(k))
    np.testing.assert_array_equal(T, np.triu(T))
    Q = np.eye(V.shape[0]) - V @ T @ V.T
    np.testing.assert_allclose(Q.T @ Q, np.eye(V.shape[0]), rtol=0,
                               atol=1e-14)
    np.testing.assert_allclose(space.change_of_basis, Q[:, k:].T, rtol=0,
                               atol=1e-15)


def test_traceless_change_of_basis_is_orthonormal_and_kills_r2():
    n, p = 4, 4
    space = ml.build_traceless(n, p)
    C = space.change_of_basis
    np.testing.assert_allclose(C @ C.T, np.eye(space.dim), atol=1e-12)
    R2 = ml.r2_multiplication_matrix(n, p - 2)
    assert np.abs(C @ R2).max() < 1e-12


@pytest.mark.parametrize("n,p", [(4, 3), (5, 4)])
def test_harmonic_subspace_is_invariant(n, p):
    # the ambient generators must not map harmonics off the harmonic subspace
    sym = ml.build_symmetric(n, p)
    tr = ml.build_traceless(n, p)
    P = tr.change_of_basis.T @ tr.change_of_basis
    for D in dense_generators(sym):
        leak = (np.eye(sym.dim) - P) @ D @ P
        assert np.abs(leak).max() < 1e-10


def test_casimir_is_scalar_on_irreducibles():
    # sum of -D_a^2: p(n - p) on p-forms, p(p + n - 2) on harmonic degree p
    n = 4
    for p in (1, 2, 3):
        space = ml.build_exterior(n, p)
        cas = sum(-D @ D for D in dense_generators(space))
        np.testing.assert_allclose(cas, p * (n - p) * np.eye(space.dim),
                                   atol=1e-12)
    for p in (1, 2, 3):
        space = ml.build_traceless(n, p)
        dense = _as_dense(space)
        cas = sum(-D @ D for D in dense.values())
        np.testing.assert_allclose(cas, p * (p + n - 2) * np.eye(space.dim),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# product table


def _dense_table(kind, n, pa, pb):
    """T[:, a, b]: coordinates of the product of basis vectors a and b."""
    dim = ml.dim_exterior if kind == "exterior" else ml.dim_symmetric
    out, ia, ib, val = ml.product_table(kind, n, pa, pb)
    T = np.zeros((dim(n, pa + pb), dim(n, pa), dim(n, pb)))
    T[out, ia, ib] = val
    return T, ia * dim(n, pb) + ib


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("pa,pb", [(1, 0), (1, 1), (1, 3), (2, 2), (3, 1)])
def test_symmetric_products_match_polynomial_multiplication(n, pa, pb):
    # degree one (pa = 1) is multiplication by x_i; every product is listed,
    # ordered by the first factor, then the second
    T, order = _dense_table("symmetric", n, pa, pb)
    np.testing.assert_array_equal(order, np.arange(order.size))
    sa, sb = ml.build_symmetric(n, pa), ml.build_symmetric(n, pb)
    out = ml.build_symmetric(n, pa + pb)
    for a in range(sa.dim):
        ua = coords_to_polynomial(sa, np.eye(sa.dim)[a])
        for b in range(sb.dim):
            ub = coords_to_polynomial(sb, np.eye(sb.dim)[b])
            np.testing.assert_allclose(T[:, a, b],
                                       polynomial_coords(out, ua * ub),
                                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,pa,pb", [(3, 1, 1), (4, 1, 2), (5, 2, 2),
                                     (5, 3, 1), (6, 2, 3), (4, 0, 3)])
def test_wedge_products_match_sort_inversion_sign(n, pa, pb):
    T, order = _dense_table("exterior", n, pa, pb)
    assert np.all(np.diff(order) > 0)
    out = ml.build_exterior(n, pa + pb)
    for a, I in enumerate(ml.wedge_basis(n, pa)):
        for b, J in enumerate(ml.wedge_basis(n, pb)):
            np.testing.assert_array_equal(
                T[:, a, b], wedge_coords(out, [(1.0, I + J)]))


@pytest.mark.parametrize("kind", ["exterior", "symmetric"])
def test_product_table_is_bit_identical_to_the_loop(kind):
    for n in range(1, 9):
        for pa in range(4):
            for pb in range(4):
                got = ml.product_table(kind, n, pa, pb)
                want = product_table_loop(kind, n, pa, pb)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)


def test_product_table_indices_do_not_overflow_at_sym2_r60():
    # a mixed-radix key over 60 exponents would overflow int64 here
    got = ml.product_table("symmetric", 60, 1, 1)
    want = product_table_loop("symmetric", 60, 1, 1)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("n,p", [(1, 2), (3, 0), (3, 2), (4, 3), (5, 1)])
def test_r2_map_multiplies_by_r_squared(n, p):
    src, dst = ml.build_symmetric(n, p), ml.build_symmetric(n, p + 2)
    M = ml.r2_multiplication_matrix(n, p)
    for col in range(src.dim):
        u = coords_to_polynomial(src, np.eye(src.dim)[col])
        np.testing.assert_allclose(
            M[:, col], polynomial_coords(dst, r_squared(n) * u),
            rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# coordinates


def test_polynomial_coords_roundtrip(rng):
    n, p = 4, 3
    for build in (ml.build_symmetric, ml.build_traceless):
        space = build(n, p)
        if space.kind == "traceless":
            poly = harmonic_projection(Polynomial(
                n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)}))
        else:
            poly = Polynomial(
                n, {e: rng.standard_normal() for e in ml.monomial_basis(n, p)})
        v = polynomial_coords(space, poly)
        back = coords_to_polynomial(space, v)
        for e in set(poly.coeffs) | set(back.coeffs):
            assert back.coeffs.get(e, 0.0) == pytest.approx(
                poly.coeffs.get(e, 0.0), abs=1e-10)
        # coordinates are isometric for the apolar pairing
        assert float(v @ v) == pytest.approx(poly.pairing(poly), rel=1e-12)


def test_polynomial_coords_rejects_nonharmonic_for_traceless(rng):
    n, p = 4, 3
    space = ml.build_traceless(n, p)
    bad = Polynomial(n, {(3, 0, 0, 0): 1.0})      # not harmonic
    with pytest.raises(ValueError):
        polynomial_coords(space, bad)


def test_wedge_coords_signs():
    n = 4
    space = ml.build_exterior(n, 2)
    v = wedge_coords(space, [(1.0, (1, 2))])
    w = wedge_coords(space, [(1.0, (2, 1))])
    np.testing.assert_array_equal(v, -w)
    x = wedge_coords(space, [(1.0, (1, 1))])
    np.testing.assert_array_equal(x, np.zeros(space.dim))
    # permutation parity in higher degree
    space3 = ml.build_exterior(n, 3)
    a = wedge_coords(space3, [(2.0, (1, 2, 3))])
    b = wedge_coords(space3, [(2.0, (2, 3, 1))])
    np.testing.assert_allclose(a, b, atol=1e-15)
    c = wedge_coords(space3, [(2.0, (2, 1, 3))])
    np.testing.assert_allclose(a, -c, atol=1e-15)
