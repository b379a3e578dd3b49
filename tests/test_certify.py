"""Star-shift certification, Grassmannian optimization, hierarchy checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelab import certify as ce
from curvelab import curvature as cv
from curvelab import multilinear as ml
from curvelab import weitzenbock as wz
from curvelab.fixtures import fixture_operator

from conftest import exact_answer_operator, random_operator, selfdual_split


@pytest.fixture(autouse=True)
def cold_memo():
    """Each test starts with no solve record kept."""
    ce._solve.cache_clear()


# ---------------------------------------------------------------------------
# the star involution on two-forms of R^4


def test_star_matrix_hand_values():
    # pair order (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)
    expected = np.zeros((6, 6))
    expected[0, 5] = expected[5, 0] = 1.0
    expected[1, 4] = expected[4, 1] = -1.0
    expected[2, 3] = expected[3, 2] = 1.0
    assert np.array_equal(cv.four_form_matrix(4), expected)
    assert np.array_equal(fixture_operator("four-form", 4).mat, expected)


def test_star_is_a_symmetric_involution():
    s = cv.four_form_matrix(4)
    assert np.allclose(s @ s, np.eye(6))
    assert np.array_equal(s, s.T)
    assert s.trace() == 0.0


def test_selfdual_split_example():
    alpha = np.zeros(6)
    alpha[0] = 1.0                       # the (1,2) coordinate plane
    plus, minus = selfdual_split(alpha)
    assert np.allclose(plus, [0.5, 0, 0, 0, 0, 0.5])
    assert np.allclose(minus, [0.5, 0, 0, 0, 0, -0.5])
    s = cv.four_form_matrix(4)
    assert np.allclose(s @ plus, plus)
    assert np.allclose(s @ minus, -minus)
    assert np.allclose(plus + minus, alpha)


def test_selfdual_basis_is_orthonormal_eigenbasis():
    # the split halves of the planes (1,2), (1,3), (1,4), rescaled by
    # sqrt 2, are orthonormal bases of the +1 and -1 eigenspaces
    star = cv.four_form_matrix(4)
    halves = [selfdual_split(e) for e in np.eye(6)[:3]]
    plus = np.sqrt(2.0) * np.array([h[0] for h in halves])
    minus = np.sqrt(2.0) * np.array([h[1] for h in halves])
    for rows, sign in ((plus, 1.0), (minus, -1.0)):
        assert rows.shape == (3, 6)
        assert np.allclose(rows @ rows.T, np.eye(3))
        for row in rows:
            assert np.allclose(star @ row, sign * row)


def test_selfdual_split_rejects_wrong_shape():
    with pytest.raises(ValueError):
        selfdual_split(np.zeros(5))


# ---------------------------------------------------------------------------
# maximization of a concave function from its supergradients


def test_concave_max_parabola():
    # the Newton point of the start is the maximizer
    for start in (-1.5, 1.5):
        t, val = ce.concave_max(
            lambda t: (3.0 - (t - 0.7) ** 2, -2.0 * (t - 0.7), -2.0),
            -2.0, 2.0, start=start)
        assert t == pytest.approx(0.7, abs=1e-9)
        assert val == pytest.approx(3.0, abs=1e-12)


def test_concave_max_kinked_concave():
    # at the kink any slope in [-1, 1] is a supergradient
    for start in (-0.5, 0.9):
        t, val = ce.concave_max(
            lambda t: (-abs(t - 0.3), -math.copysign(1.0, t - 0.3), 0.0),
            -1.0, 1.0, start=start)
        assert t == pytest.approx(0.3, abs=1e-9)
        assert val == pytest.approx(0.0, abs=1e-9)


def test_concave_max_linear_edge():
    # monotone concave: the maximum sits at an endpoint, which a search
    # from inside probes once nothing else lands in the bracket
    for start in (0.0, 0.5):
        t, val = ce.concave_max(lambda t: (t, 1.0, 0.0), 0.0, 1.0,
                                start=start)
        assert t == pytest.approx(1.0, abs=1e-8)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_concave_max_rejects_bimodal():
    # the probe at the far end rises above the start's tangent
    with pytest.raises(RuntimeError):
        ce.concave_max(lambda t: (t * t, 2.0 * t, 2.0), -2.0, 2.0, 0.5)


def test_concave_max_bisects_past_a_bad_curvature_estimate():
    # a curvature 1e12 times too large makes every Newton step tiny; after
    # _FAST_PROBES probes the search probes the bracket end it has not,
    # then bisects instead of creeping, and ends on a probe at the
    # crossing of the ends' tangents.  The budget stated above _GAP_TOL
    # is attained from a start at either end.
    budget = ce._FAST_PROBES + 2 + math.ceil(math.log2(2.0 / ce._T_TOL))
    counts = {}
    for start in (-1.0, 0.0, 0.5, 1.0):
        probes = []

        def f(t):
            probes.append(t)
            return -abs(t - 0.3), -math.copysign(1.0, t - 0.3), -1e12

        t, val = ce.concave_max(f, -1.0, 1.0, start)
        assert t == pytest.approx(0.3, abs=1e-9)
        counts[start] = len(probes)
    assert max(counts.values()) <= budget
    assert counts[-1.0] == counts[1.0] == budget


def seeded_n4_operators(count=200):
    rng = np.random.default_rng(20240)
    return [random_operator(4, rng) for _ in range(count)]


def test_star_shift_max_dominates_a_fine_grid():
    # mu(t) = lambda_min(R + t star) on 4001 points of t in [-2, 2] |R|_2
    star = cv.four_form_matrix(4)
    for R in seeded_n4_operators():
        norm = float(np.linalg.norm(R.mat, 2))
        grid = np.linspace(-2.0, 2.0, 4001) * norm
        on_grid = np.linalg.eigvalsh(R.mat + grid[:, None, None] * star)
        val, t, _ = ce.thorpe_sec_min(R)
        assert val >= on_grid[:, 0].max() - 1e-12 * norm
        assert val == pytest.approx(
            np.linalg.eigvalsh(R.mat + t * star)[0], abs=1e-12 * norm)


def test_star_shift_probe_budget(monkeypatch):
    # Newton steps from the balanced-trace start, stopped by the plane
    # bound, take a median of 4 and at most 7 probes on these operators
    counts = []
    search = ce.concave_max

    def counted(f, *args, **kwargs):
        calls = []

        def g(t):
            calls.append(t)
            return f(t)
        result = search(g, *args, **kwargs)
        counts.append(len(calls))
        return result

    monkeypatch.setattr(ce, "concave_max", counted)
    for R in seeded_n4_operators():
        ce.thorpe_sec_min(R)
    assert len(counts) == 200
    assert np.median(counts) <= 4
    assert max(counts) <= 7


def exact_n4_operator(rng):
    """``R = m Id + P + c star``: P >= 0 annihilates the plane s0 and has
    its other eigenvalues at least 1/2, and star is invisible to sec, so
    min sec = m, attained on s0."""
    m = rng.uniform(-1.0, 1.0)
    q = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    s0 = cv.TwoPlane(q[:, 0], q[:, 1]).coords()
    G = rng.standard_normal((6, 6)) / math.sqrt(6)
    proj = np.eye(6) - np.outer(s0, s0)
    P = proj @ (0.5 * np.eye(6) + G @ G.T) @ proj
    R = (m * np.eye(6) + 0.5 * (P + P.T)
         + rng.standard_normal() * cv.four_form_matrix(4))
    return m, cv.CurvatureOperator(4, R)


def test_n4_refutations_are_exact(monkeypatch):
    # the refutation plane comes off the search's best probe: its sec is
    # the exact minimum, and no eigenproblem is solved twice
    probes, solves = [], []
    search, eigh = ce.concave_max, np.linalg.eigh

    def counted_search(f, *args, **kwargs):
        def g(t):
            probes.append(t)
            return f(t)
        return search(g, *args, **kwargs)

    def counted_eigh(*args, **kwargs):
        solves.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(ce, "concave_max", counted_search)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    rng = np.random.default_rng(41)
    delta = 1e-3
    for _ in range(200):
        m, R = exact_n4_operator(rng)
        norm = float(np.linalg.norm(R.mat, 2))
        assert ce.certify_bound(R, m - delta).certified
        probes.clear()
        solves.clear()
        cert = ce.certify_bound(R, m + delta)
        assert cert.refuted and cert.method == "thorpe_exact"
        assert len(solves) <= len(probes)
        plane = cert.witness["plane"]
        value = cv.sec(R, cv.TwoPlane(np.array(plane["x"]),
                                      np.array(plane["y"])))
        assert value == pytest.approx(m, abs=1e-12 * norm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_star_shift_closes_its_gap_on_a_real_plane():
    # the two-form thorpe_sec_min returns is a plane whose sec - k lies
    # within gap_tol |R - k Id|_2 above the value, and both bracket m - k;
    # the bands' lower ends allow the rounding of sec and of lambda_min
    rng = np.random.default_rng(41)
    queries = []
    for _ in range(200):
        m, R = exact_n4_operator(rng)
        queries += [(R, m, m - 1e-3, "ge"), (R, m, m + 1e-3, "ge")]
    for name, lo, hi in (("identity", 1.0, 1.0), ("s2xs2", 0.0, 1.0),
                         ("hodge-star", 0.0, 0.0)):
        R = fixture_operator(name, 4)
        for d in (-1e-3, 1e-3):
            queries += [(R, lo, lo + d, "ge"), (R, hi, hi - d, "le")]
    for R, m, k, direction in queries:
        cert = ce.certify_bound(R, k, direction=direction)
        holds = k < m if direction == "ge" else k > m
        assert cert.verdict == ("certified" if holds else "refuted")
        sign = 1.0 if direction == "ge" else -1.0
        Rs = cv.CurvatureOperator(4, sign * R.mat)
        S = cv.CurvatureOperator(4, Rs.mat - sign * k * np.eye(6))
        slack = 1e-15 * float(np.linalg.norm(R.mat, 2))
        band = cert.tolerances["gap_tol"] * float(np.linalg.norm(S.mat, 2))
        mu, _, w = ce.thorpe_sec_min(S)
        plane = cv.TwoPlane(*ce._thorpe_plane(w))
        frame = np.array([plane.x, plane.y])
        assert np.allclose(frame @ frame.T, np.eye(2), atol=1e-12)
        assert -slack <= cv.sec(Rs, plane) - sign * k - mu <= band + slack
        for value in (mu, cert.witness["mu_max"]):
            assert -slack <= sign * (m - k) - value <= band + slack


def kinked_n4_operator(rng):
    """``R = Q M Q^T`` with ``M = V diag(0, 0, l_3..l_6) V^T - t J`` in an
    eigenbasis Q of star, where star is ``J = diag(j)``: the kernel of
    M + t J is two-dimensional and J is indefinite on it, so it holds a
    plane, min sec = 0 exactly, and lambda_min(R + s star) has a kink of
    value 0 at s = t."""
    j, Q = np.linalg.eigh(cv.four_form_matrix(4))
    j = np.sign(j)
    while True:
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        if np.linalg.det(V[:, :2].T @ (j[:, None] * V[:, :2])) < 0.0:
            break
    lam = np.concatenate([[0.0, 0.0], rng.uniform(0.2, 2.0, 4)])
    M = V @ np.diag(lam) @ V.T - rng.uniform(-0.8, 0.8) * np.diag(j)
    return cv.CurvatureOperator(4, Q @ M @ Q.T)


def clustered_n4_operator(rng, m):
    """``R = Q (P - t J) Q^T`` in an eigenbasis Q of star, where star is
    ``J = diag(j)``, with ``P = V diag(0, .., 0, l) V^T >= 0`` of kernel
    dimension m (2 <= m <= 4), J indefinite on the kernel and
    ``tr J P = 0``.  The search's balanced-trace start is then t, where
    lambda_min(R + s star) = 0 is a kink of multiplicity m, so its first
    probe mixes an m-dimensional eigenspace.  P does not commute with J,
    so R takes the search."""
    j, Q = np.linalg.eigh(cv.four_form_matrix(4))
    j = np.sign(j)
    while True:
        V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        form = np.linalg.eigvalsh(V[:, :m].T @ (j[:, None] * V[:, :m]))
        c = np.einsum("ik,i,ik->k", V, j, V)[m:]      # v_k . J v_k
        lam = rng.uniform(0.2, 2.0, 6 - m)
        lam[-1] = -(lam[:-1] @ c[:-1]) / c[-1]
        if form[0] < 0.0 < form[-1] and lam[-1] >= 0.2:
            break
    M = (V[:, m:] @ np.diag(lam) @ V[:, m:].T
         - rng.uniform(-0.8, 0.8) * np.diag(j))
    return cv.CurvatureOperator(4, Q @ M @ Q.T)


def star_commuting(A):
    """``(M + star M star) / 2`` for the symmetric part M of a 6 x 6 A:
    each entry and its mirror ``s_i s_j M_{5-i,5-j}`` are rounded by one
    operation on the same two numbers, so it commutes with star exactly,
    and so does any multiple of it."""
    star = cv.four_form_matrix(4)
    M = 0.5 * (A + A.T)
    return 0.5 * (M + star @ M @ star)


def test_kinked_maxima_are_refuted_by_a_minimizing_plane():
    # the search's last probe, at the crossing of its bracket ends'
    # tangents, lands on the kink and mixes its eigenspace into a plane
    rng = np.random.default_rng(2)
    for _ in range(250):
        R = kinked_n4_operator(rng)
        delta = 1e-3 * float(np.linalg.norm(R.mat, 2))
        assert ce.certify_bound(R, -delta).certified
        cert = ce.certify_bound(R, delta)
        assert cert.refuted and cert.method == "thorpe_exact"
        plane = cert.witness["plane"]
        value = cv.sec(R, cv.TwoPlane(np.array(plane["x"]),
                                      np.array(plane["y"])))
        assert value < delta - cert.tolerances["eig_tol"]


def test_kinked_maxima_close_the_gap_to_their_plane():
    # on a kinked maximum too, the value m comes within _GAP_TOL |R|_2 of
    # the sec of the record's own plane, which bounds the maximum above
    rng = np.random.default_rng(3)
    for _ in range(500):
        R = kinked_n4_operator(rng)
        norm = float(np.linalg.norm(R.mat, 2))
        _, _, m, _, value, *_ = ce._solve(R.mat.tobytes(), 4)
        assert m >= value - ce._GAP_TOL * norm


# ---------------------------------------------------------------------------
# exact minimum sectional curvature in dimension four


def definite(F):
    """Whether the symmetric F is definite, by Sylvester's criterion: its
    leading principal minors are all positive, or alternate in sign from
    a negative first one.  At m = 2 that is ``det F > 0``."""
    minors = [np.linalg.det(F[:i, :i]) for i in range(1, len(F) + 1)]
    return (all(d > 0.0 for d in minors)
            or all((-1) ** i * d > 0.0 for i, d in enumerate(minors, 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_isotropic_vector_exists_unless_the_form_is_definite(m, seed):
    # a form has an isotropic line iff it is not definite, so the result
    # is None exactly when J's form on span(B) is definite (never for
    # m >= 4: J has signature (3, 3)), and otherwise a unit vector of
    # span(B) on which that form vanishes
    j = ce._star_eigenbasis()[2]
    B = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, m)))[0]
    u = ce._isotropic(B, j)
    if definite(B.T @ (j[:, None] * B)):
        assert u is None
        return
    assert u is not None and u.shape == (6,)
    assert abs(u @ u - 1.0) <= 1e-14
    assert np.abs(u - B @ (B.T @ u)).max() <= 1e-14
    assert abs(u @ (j * u)) <= 1e-14


def test_shifted_minimum_on_fixtures():
    # the fixtures commute with star, and the closed form answers them
    # exactly, through the library function and the solve record alike
    for name, m, t in (("identity", 1.0, 0.0), ("hodge-star", 0.0, -1.0),
                       ("s2xs2", 0.0, 0.0)):
        R = fixture_operator(name, 4)
        assert ce.thorpe_sec_min(R)[:2] == (m, t)
        assert ce._solve(R.mat.tobytes(), 4)[2:4] == (m, t)


def test_star_commuting_operators_take_the_closed_form(monkeypatch):
    # the operators that commute with star, and only those, are answered
    # without the search: fixtures and their negatives, through
    # certify_bound and thorpe_sec_min
    searches = []
    search = ce.concave_max

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(ce, "concave_max", counted)
    nudged = fixture_operator("s2xs2", 4).mat.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 2.0)
    cases = [(name, sign * fixture_operator(name, 4).mat, True)
             for name in ("identity", "hodge-star", "s2xs2", "weyl-type",
                          "four-form")
             for sign in (1.0, -1.0)]
    cases += [("traceless-ricci", fixture_operator("traceless-ricci", 4).mat,
               False), ("nudged s2xs2", nudged, False)]
    for name, mat, closed in cases:
        R = cv.CurvatureOperator(4, mat)
        for solve in (lambda: ce.certify_bound(R, 0.0),
                      lambda: ce.thorpe_sec_min(R)):
            ce._solve.cache_clear()
            searches.clear()
            solve()
            assert (not searches) == closed, name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
def test_star_commuting_closed_form_is_the_star_shift_maximum(seed, exponent):
    # on exactly star-commuting operators scaled by 10^U(-6, 6): the
    # record's plane is orthonormal and its sec meets lambda_min(R + t* star)
    # from an independent eigvalsh, and the search on a copy one ulp off
    # commutation finds the same maximum
    A = np.random.default_rng(seed).standard_normal((6, 6))
    R = cv.CurvatureOperator(4, 10.0 ** exponent * star_commuting(A))
    norm = float(np.linalg.norm(R.mat, 2))
    lam = np.linalg.eigvalsh(R.mat)
    lo, hi, m, t_star, value, x, y, _ = ce._solve(R.mat.tobytes(), 4)
    assert ce.thorpe_sec_min(R)[:2] == (m, t_star)
    assert abs(lo - lam[0]) <= 1e-14 * norm
    assert abs(hi - lam[-1]) <= 1e-14 * norm
    frame = np.array([x, y])
    assert np.abs(frame @ frame.T - np.eye(2)).max() <= 1e-14
    shifted = np.linalg.eigvalsh(R.mat + t_star * cv.four_form_matrix(4))[0]
    sec = cv.sec(R, cv.TwoPlane(np.array(x), np.array(y)))
    assert abs(sec - value) <= 1e-14 * norm
    assert abs(sec - shifted) <= 1e-13 * norm
    assert abs(m - shifted) <= 1e-13 * norm
    nudged = R.mat.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], math.inf)
    assert ce._star_split(nudged) is None
    searched = ce.thorpe_sec_min(cv.CurvatureOperator(4, nudged))[0]
    assert abs(searched - m) <= ce._GAP_TOL * norm


def test_shifted_minimum_rejects_other_dimensions():
    with pytest.raises(ValueError):
        ce.thorpe_sec_min(fixture_operator("identity", 5))


def test_zero_operator_short_circuit():
    val, t, _ = ce.thorpe_sec_min(cv.CurvatureOperator(4, np.zeros((6, 6))))
    assert val == 0.0 and t == 0.0


# ---------------------------------------------------------------------------
# sectional extremes by optimization


def test_extremes_on_fixtures():
    ext = ce.sec_extremes(fixture_operator("identity", 4))
    assert ext.min_value == pytest.approx(1.0, abs=1e-8)
    assert ext.max_value == pytest.approx(1.0, abs=1e-8)

    ext = ce.sec_extremes(fixture_operator("hodge-star", 4))
    assert ext.min_value == pytest.approx(0.0, abs=1e-8)
    assert ext.max_value == pytest.approx(0.0, abs=1e-8)

    ext = ce.sec_extremes(fixture_operator("s2xs2", 4))
    assert ext.min_value == pytest.approx(0.0, abs=1e-8)
    assert ext.max_value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_extreme_planes_reproduce_reported_values(rng, scale):
    R = cv.CurvatureOperator(4, scale * random_operator(4, rng).mat)
    ext = ce.sec_extremes(R)
    assert cv.sec(R, ext.min_plane) == pytest.approx(ext.min_value, rel=1e-12)
    assert cv.sec(R, ext.max_plane) == pytest.approx(ext.max_value, rel=1e-12)
    assert ext.min_value <= ext.max_value
    assert 0.0 < ext.converged_fraction <= 1.0


def test_extremes_match_exact_minimum_on_random_operators(rng):
    # the plane search, which sec_extremes runs for n != 4, against the
    # star shift
    for _ in range(10):
        R = random_operator(4, rng)
        exact, _, _ = ce.thorpe_sec_min(R)
        assert ce._sec_min(R)[0] == pytest.approx(exact, abs=1e-6)


def test_extremes_in_dim_four_read_the_solve_records():
    # sec_extremes at n = 4 is the record of R and of -R, exact on kinks,
    # where the plane search stops above the minimum 0
    rng = np.random.default_rng(3)
    ops = [random_operator(4, rng) for _ in range(20)]
    ops += [kinked_n4_operator(rng) for _ in range(50)]
    for i, R in enumerate(ops):
        ext = ce.sec_extremes(R)
        *_, low, x, y, _ = ce._solve(R.mat.tobytes(), 4)
        assert ext.min_value == low
        assert (tuple(ext.min_plane.x), tuple(ext.min_plane.y)) == (x, y)
        *_, high, x, y, _ = ce._solve((-R.mat).tobytes(), 4)
        assert ext.max_value == -high
        assert (tuple(ext.max_plane.x), tuple(ext.max_plane.y)) == (x, y)
        assert ext.converged_fraction == 1.0
        if i >= 20:
            norm = float(np.linalg.norm(R.mat, 2))
            assert abs(ext.min_value) <= ce._GAP_TOL * norm


def test_extremes_in_dim_four_serve_later_bound_queries(monkeypatch):
    # sec_extremes fills the memo that certify_bound reads
    solves = _counted_solves(monkeypatch)
    R = random_operator(4, np.random.default_rng(12))
    ext = ce.sec_extremes(R)
    assert solves == [R.mat.tobytes(), (-R.mat).tobytes()]
    for k in (ext.min_value - 0.1, ext.min_value + 0.1):
        ce.certify_bound(R, k)
    for k in (ext.max_value + 0.1, ext.max_value - 0.1):
        ce.certify_bound(R, k, direction="le")
    assert len(solves) == 2


def test_extremes_are_deterministic(rng):
    # the second call solves cold too, rather than reading the first's
    # records
    R = random_operator(5, rng)
    a = ce.sec_extremes(R)
    ce._solve.cache_clear()
    b = ce.sec_extremes(R)
    assert a.min_value == b.min_value and a.max_value == b.max_value


# ---------------------------------------------------------------------------
# one solve record per operator at every n


@pytest.mark.parametrize("n", [3, 5, 6])
def test_record_sec_is_the_sec_of_its_plane(n):
    # omega = 0 outside n = 4: m is lambda_min, and the plane search gives
    # the plane.  At n = 3 every two-form is decomposable, so lambda_min is
    # min sec and the search, started on the bottom eigenvector's plane,
    # stays there
    rng = np.random.default_rng(n)
    for _ in range(10):
        for mat in (random_operator(n, rng).mat, exact_answer_operator(
                n, rng)[0].mat):
            R = cv.CurvatureOperator(n, mat)
            norm = float(np.linalg.norm(mat, 2))
            lo, hi, m, t_star, value, x, y, converged = ce._solve(
                mat.tobytes(), n)
            lam = np.linalg.eigvalsh(mat)
            assert m == lo and t_star is None
            assert abs(lo - lam[0]) <= 1e-14 * norm
            assert abs(hi - lam[-1]) <= 1e-14 * norm
            assert value == cv.sec(R, cv.TwoPlane(np.array(x), np.array(y)))
            assert 0.0 < converged <= 1.0
            if n == 3:
                assert abs(m - value) <= 1e-14 * norm


def test_extremes_serve_later_bound_queries_outside_dim_four(monkeypatch):
    # sec_extremes keeps the records of R and -R, so ge and le queries on
    # R, certified and refuted alike, solve no eigenproblem
    R = random_operator(5, np.random.default_rng(14))
    ext = ce.sec_extremes(R)
    lam = np.linalg.eigvalsh(R.mat)
    solves = []

    def counted(solve):
        def run(*args, **kwargs):
            solves.append(solve.__name__)
            return solve(*args, **kwargs)
        return run

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    verdicts = [ce.certify_bound(R, k, direction=direction).verdict
                for k, direction in ((lam[0] - 0.1, "ge"),
                                     (ext.min_value + 0.1, "ge"),
                                     (lam[-1] + 0.1, "le"),
                                     (ext.max_value - 0.1, "le"))]
    assert verdicts == ["certified", "refuted"] * 2
    assert solves == []


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bounds_bracket_the_queried_extreme(n):
    # [lower, upper] holds min sec for ge and max sec for le, does not
    # depend on k, and a refuting plane's sec is its end on the violating
    # side: upper for ge, lower for le
    rng = np.random.default_rng(50 + n)
    for _ in range(10):
        R, m = exact_answer_operator(n, rng)
        norm = float(np.linalg.norm(R.mat, 2))
        slack = ce._GAP_TOL * norm
        for Rq, extreme, direction in ((R, m, "ge"), (cv.CurvatureOperator(
                n, -R.mat), -m, "le")):
            certs = [ce.certify_bound(Rq, extreme + d * norm,
                                      direction=direction, strict=strict)
                     for d in (-0.5, -1e-3, 0.0, 1e-3, 0.5)
                     for strict in (False, True)]
            assert len({json.dumps(c.bounds) for c in certs}) == 1
            lower, upper = certs[0].bounds["lower"], certs[0].bounds["upper"]
            assert lower <= upper + slack
            assert lower - slack <= extreme <= upper + slack
            refuted = [c for c in certs if c.refuted]
            assert refuted
            for c in refuted:
                assert c.witness["plane"]["sec"] == (
                    upper if direction == "ge" else lower)


# ---------------------------------------------------------------------------
# four-dimensional certificates


def test_certify_identity_interior_bound():
    cert = ce.certify_bound(fixture_operator("identity", 4), 0.5)
    assert cert.certified and cert.verdict == "certified"
    assert cert.method == "thorpe_exact"
    assert cert.witness["mu_max"] == pytest.approx(0.5, abs=1e-9)


def test_certify_boundary_strict_vs_nonstrict():
    R = fixture_operator("identity", 4)
    assert ce.certify_bound(R, 1.0, strict=False).certified
    strict = ce.certify_bound(R, 1.0, strict=True)
    # the non-strict bound holds, so a strict query at the boundary cannot
    # honestly be refuted either -- it is inconclusive
    assert strict.verdict == "inconclusive_for_certification"
    assert not strict.certified and not strict.refuted
    # well inside the interior, strict certification goes through
    assert ce.certify_bound(R, 0.5, strict=True).certified
    # and a strictly violated bound is still refuted in strict mode
    assert ce.certify_bound(R, 1.5, strict=True).refuted


def test_certify_verdict_is_scale_invariant(rng):
    R = random_operator(4, rng)
    base = ce.certify_bound(R, 0.0)
    assert base.refuted
    for scale in (1e-12, 1e8):
        cert = ce.certify_bound(cv.CurvatureOperator(4, scale * R.mat), 0.0)
        assert cert.verdict == base.verdict
        assert cert.witness["mu_max"] == pytest.approx(
            scale * base.witness["mu_max"], rel=1e-9)
        assert cert.witness["plane"]["sec"] < 0.0
    # outside dimension four the plane search scales too
    RL = fixture_operator("RL", 5)
    for scale in (1e-12, 1.0, 1e8):
        k = 0.5 * scale
        cert = ce.certify_bound(cv.CurvatureOperator(5, scale * RL.mat), k)
        assert cert.refuted and cert.method == "grassmann_opt"
        assert cert.witness["plane"]["sec"] < k


def test_certify_refutation_carries_sound_plane():
    R = fixture_operator("s2xs2", 4)
    assert ce.certify_bound(R, 0.0).certified
    cert = ce.certify_bound(R, 0.01)
    assert cert.refuted
    plane = cert.witness["plane"]
    value = cv.sec(R, cv.TwoPlane(np.array(plane["x"]), np.array(plane["y"])))
    assert value == pytest.approx(plane["sec"], abs=1e-12)
    assert value < 0.01 - 1e-9


def test_n4_refutations_read_the_plane_off_the_optimum(monkeypatch):
    # the degenerate fixtures have 4- and 6-dimensional bottom eigenspaces
    # at the optimum; the plane still comes without any plane search
    def no_search(*args, **kwargs):
        raise AssertionError("the plane optimizer ran at n = 4")

    monkeypatch.setattr(ce, "_descend", no_search)
    for name, k, direction, extreme in (
        ("identity", 1.5, "ge", 1.0), ("identity", 0.5, "le", 1.0),
        ("hodge-star", 0.01, "ge", 0.0), ("s2xs2", 0.01, "ge", 0.0),
    ):
        R = fixture_operator(name, 4)
        cert = ce.certify_bound(R, k, direction=direction)
        assert cert.refuted and cert.method == "thorpe_exact"
        plane = cert.witness["plane"]
        value = cv.sec(R, cv.TwoPlane(np.array(plane["x"]),
                                      np.array(plane["y"])))
        assert value == pytest.approx(extreme, abs=1e-12)
        assert plane["sec"] == pytest.approx(value, abs=1e-12)


def test_n4_refutation_needs_a_plane_below_the_bound(monkeypatch):
    # s2xs2 has sec 1 on e1^e2 and sec 0 on e1^e3; a plane read off the
    # optimum that does not violate the bound refutes nothing (the memo of
    # the last solves is cleared whenever the plane reader changes)
    e = np.eye(4).tolist()
    R = fixture_operator("s2xs2", 4)
    for k, direction, plane in ((0.01, "ge", (e[0], e[1])),
                                (0.99, "le", (e[0], e[2]))):
        assert ce.certify_bound(R, k, direction=direction).refuted
        monkeypatch.setattr(ce, "_thorpe_plane", lambda *args: plane)
        ce._solve.cache_clear()
        cert = ce.certify_bound(R, k, direction=direction)
        assert cert.verdict == "inconclusive_for_certification"
        assert "plane" not in cert.witness
        monkeypatch.undo()
        ce._solve.cache_clear()


# ---------------------------------------------------------------------------
# one star-shift solve per n = 4 operator


def _counted_solves(monkeypatch):
    """List the operators' bytes that the star-shift search solves from
    here on."""
    solves = []
    solve = ce.thorpe_sec_min

    def counted(R, *args, **kwargs):
        solves.append(R.mat.tobytes())
        return solve(R, *args, **kwargs)

    monkeypatch.setattr(ce, "thorpe_sec_min", counted)
    return solves


def test_one_solve_serves_every_k_and_the_le_mirror(monkeypatch):
    solves = _counted_solves(monkeypatch)
    R = random_operator(4, np.random.default_rng(7))
    minus = cv.CurvatureOperator(4, -R.mat)
    for k in (-1.0, -0.1, 0.0, 0.05, 0.3, 2.0):
        ce.certify_bound(R, k)
        ce.certify_bound(minus, -k, direction="le")
    assert len(solves) == 1
    ce.certify_bound(minus, 0.0)
    assert len(solves) == 2


def test_alternating_ge_and_le_solve_r_and_minus_r_once(monkeypatch):
    # a pinching check a <= sec <= b on one operator, swept over k
    solves = _counted_solves(monkeypatch)
    R = random_operator(4, np.random.default_rng(9))
    for k in (-1.0, -0.2, 0.0, 0.1, 0.4, 1.5):
        ce.certify_bound(R, k)
        ce.certify_bound(R, k, direction="le")
    assert solves == [R.mat.tobytes(), (-R.mat).tobytes()]


def test_memo_keeps_two_operators_only(monkeypatch):
    solves = _counted_solves(monkeypatch)
    rng = np.random.default_rng(10)
    R1, R2, R3 = (random_operator(4, rng) for _ in range(3))
    for R in (R1, R2, R3, R1):
        ce.certify_bound(R, 0.0)
    assert solves == [R.mat.tobytes() for R in (R1, R2, R3, R1)]


def test_memo_certificates_match_cold_ones():
    # the same bytes with the solve reused as with the memo cleared
    rng = np.random.default_rng(8)
    for R in [random_operator(4, rng, scale=s) for s in (1e-6, 1.0, 1e6)]:
        norm = float(np.linalg.norm(R.mat, 2))
        m, _, _ = ce.thorpe_sec_min(R)
        minus = cv.CurvatureOperator(4, -R.mat)
        queries = [(Rq, sign * (m + d * norm), direction, strict)
                   for d in (-0.3, -1e-3, 0.0, 1e-3, 0.1)
                   for Rq, sign, direction in ((R, 1.0, "ge"),
                                               (minus, -1.0, "le"))
                   for strict in (False, True)]
        ce._solve.cache_clear()
        warm = [json.dumps(ce.certify_bound(Rq, k, direction=direction,
                                            strict=strict).to_dict())
                for Rq, k, direction, strict in queries]
        for doc, (Rq, k, direction, strict) in zip(warm, queries):
            ce._solve.cache_clear()
            cold = ce.certify_bound(Rq, k, direction=direction, strict=strict)
            assert json.dumps(cold.to_dict()) == doc


def test_memo_hit_runs_no_solve_and_no_eigensolver(monkeypatch):
    # a query on a kept operator is answered from its record: with the
    # solve and numpy's eigensolvers made to raise, every query on R and
    # -R still answers, with the bytes of its cold certificate
    R = fixture_operator("s2xs2", 4)        # sec ranges over [0, 1]
    minus = cv.CurvatureOperator(4, -R.mat)
    queries = [(Rq, k, direction, strict)
               for Rq in (R, minus) for k in (-1.5, -0.5, 0.0, 0.5, 1.0)
               for direction in ("ge", "le") for strict in (False, True)]
    cold = []
    for Rq, k, direction, strict in queries:
        ce._solve.cache_clear()
        cold.append(json.dumps(ce.certify_bound(
            Rq, k, direction=direction, strict=strict).to_dict()))
    ce._solve.cache_clear()
    ce.certify_bound(R, 0.0)
    ce.certify_bound(minus, 0.0)

    def boom(*args, **kwargs):
        raise AssertionError("a memo hit solved")

    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (ce, "thorpe_sec_min")):
        monkeypatch.setattr(owner, name, boom)
    verdicts = set()
    for doc, (Rq, k, direction, strict) in zip(cold, queries):
        cert = ce.certify_bound(Rq, k, direction=direction, strict=strict)
        assert json.dumps(cert.to_dict()) == doc
        verdicts.add(cert.verdict)
    assert verdicts == {"certified", "refuted",
                        "inconclusive_for_certification"}


def test_memo_is_not_shared_with_certificates():
    # the record holds Python floats and tuples of them, which no caller
    # can change, and a certificate its caller mutates leaves the next
    # one as it was
    R = fixture_operator("s2xs2", 4)
    first = ce.certify_bound(R, 0.01)
    expected = json.dumps(first.to_dict())
    record = ce._solve(R.mat.tobytes(), 4)
    lo, hi, m, t_star, value, x, y, converged = record
    assert type(x) is type(y) is tuple
    assert all(type(v) is float
               for v in (lo, hi, m, t_star, value, *x, *y, converged))
    first.witness["plane"]["x"][0] = 7.0
    first.witness["plane"]["y"].append(1.0)
    first.witness["t_star"] = 7.0
    assert json.dumps(ce.certify_bound(R, 0.01).to_dict()) == expected
    assert ce._solve(R.mat.tobytes(), 4) == record


def test_cold_solve_linalg_budget(monkeypatch):
    # a cold solve of an operator that commutes with star is one stacked
    # eigh and no probe.  Any other operator calls np.linalg once for
    # |R|_2 and once per probe, and each probe on a kink adds the eigh
    # that mixes its eigenspace
    calls, probes, clusters = [], [], []
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
    search, isotropic = ce.concave_max, ce._isotropic

    def counted_search(f, *args, **kwargs):
        def g(t):
            probes.append(t)
            return f(t)
        return search(g, *args, **kwargs)

    def counted_isotropic(B, j):
        clusters.append(B.shape[1])
        return isotropic(B, j)

    monkeypatch.setattr(ce, "concave_max", counted_search)
    monkeypatch.setattr(ce, "_isotropic", counted_isotropic)
    rng = np.random.default_rng(29)
    commuting = [fixture_operator(name, 4).mat
                 for name in ("identity", "s2xs2", "hodge-star")]
    commuting += [star_commuting(rng.standard_normal((6, 6)))
                  for _ in range(10)]
    searched = [exact_n4_operator(rng)[1].mat for _ in range(20)]
    searched += [kinked_n4_operator(rng).mat for _ in range(20)]
    searched += [clustered_n4_operator(rng, m).mat
                 for m in (2, 3, 4) for _ in range(3)]
    seen = set()
    for mat in [sign * mat for mat in commuting for sign in (1.0, -1.0)]:
        ce._solve.cache_clear()
        calls.clear()
        probes.clear()
        ce._solve(mat.tobytes(), 4)
        assert calls == ["eigh"] and not probes
    for mat in searched:
        ce._solve.cache_clear()
        calls.clear()
        probes.clear()
        clusters.clear()
        ce._solve(mat.tobytes(), 4)
        seen.update(clusters)
        assert 0 < len(calls) <= len(probes) + 1 + len(clusters)
    assert {2, 3, 4} <= seen


def test_certificate_serialization():
    cert = ce.certify_bound(fixture_operator("identity", 4), 0.25)
    d = cert.to_dict()
    assert d["verdict"] == "certified" and d["direction"] == "ge"
    assert set(d) == {"n", "k", "direction", "verdict", "method", "strict",
                      "bounds", "witness", "tolerances"}


# ---------------------------------------------------------------------------
# the hierarchy in general dimension


def test_hierarchy_all_pass_is_inconclusive():
    R = fixture_operator("identity", 5)
    res = ce.hierarchy_check(R, 1.0, p_max=4)
    assert res.refuted_at is None and res.witness is None
    assert [p for p, _ in res.rows] == [1, 2, 3, 4]
    assert all(abs(v) < 1e-12 for _, v in res.rows)


def test_hierarchy_refutes_above_max_curvature():
    # shifting past the round metric's curvature shows up at the first level
    R = fixture_operator("identity", 5)
    res = ce.hierarchy_check(R, 1.05)
    assert res.refuted_at == 1
    assert res.rows[0][1] == pytest.approx(-0.05 * 4, abs=1e-10)
    assert res.witness.p == 1
    assert res.witness.value == pytest.approx(-0.05 * 4, abs=1e-10)


def test_witness_search_finds_first_level():
    w = ce.witness_search(fixture_operator("identity", 4), 2.0)
    assert w is not None and w.p == 1
    assert w.value == pytest.approx(-3.0, abs=1e-9)
    # a unit linear polynomial: coordinates on Harm^1 = R^4
    assert w.coords.shape == (ml.build_traceless(4, 1).dim,) == (4,)
    assert np.linalg.norm(w.coords) == pytest.approx(1.0, abs=1e-12)


def test_witness_search_none_when_hierarchy_passes():
    # the star operator has sec == 0, and every level tolerates k < 0
    assert ce.witness_search(fixture_operator("hodge-star", 4), -0.1) is None


def test_witness_polynomial_realizes_negative_value(rng):
    R = random_operator(5, rng, scale=2.0)
    res = ce.hierarchy_check(R, 1.0)
    if res.refuted_at is None:
        pytest.skip("random draw happened to pass the hierarchy")
    w = ce.witness_search(R, 1.0)
    assert w.p == res.refuted_at
    space = ml.build_traceless(5, w.p)
    S = cv.CurvatureOperator(5, R.mat - 1.0 * np.eye(R.N))
    K = wz.curvature_term(S, space)
    coords = w.coords
    rayleigh = float(coords @ K.mat @ coords) / float(coords @ coords)
    assert rayleigh == pytest.approx(w.value, abs=1e-9)
    assert rayleigh < 0


def test_hierarchy_rows_match_the_shifted_assembly(rng):
    # rows come from K(R, Harm^p) shifted by k p (p + n - 2); the reference
    # assembles K(R - k Id, Harm^p) itself
    for n in (3, 5, 6):
        for scale in (1e-6, 1.0, 1e6):
            R = random_operator(n, rng, scale=scale)
            refuted = []
            for k in (-2.0 * scale, -0.5 * scale, 0.3 * scale, 1.5 * scale):
                res = ce.hierarchy_check(R, k, p_max=5)
                S = cv.CurvatureOperator(n, R.mat - k * np.eye(R.N))
                tol = 1e-12 * max(np.linalg.norm(R.mat, 2), abs(k))
                ref = [wz.curvature_term(S, ml.build_traceless(n, p))
                       for p, _ in res.rows]
                for (p, lam), K in zip(res.rows, ref):
                    assert abs(lam - K.lambda_min()) <= tol
                if res.witness is not None:
                    K = ref[res.refuted_at - 1]
                    assert abs(res.witness.value - K.lambda_min()) <= tol
                refuted.append(res.witness is not None)
            assert any(refuted)         # the witness rows were compared too


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hierarchy_rejects_a_bound_that_is_not_finite(n):
    # sec >= nan passes no level, and k = -inf would give rows of +inf
    R = fixture_operator("identity", n)
    for k in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ce.hierarchy_check(R, k, p_max=2)
        with pytest.raises(ValueError, match="finite"):
            ce.witness_search(R, k, p_max=2)


# ---------------------------------------------------------------------------
# the combined front end


def test_certify_bound_routes_to_exact_method_in_dim_four():
    cert = ce.certify_bound(fixture_operator("identity", 4), 0.9)
    assert cert.certified and cert.method == "thorpe_exact"


def test_certify_bound_le_direction():
    R = fixture_operator("identity", 4)
    assert ce.certify_bound(R, 1.0, direction="le").certified
    cert = ce.certify_bound(R, 0.5, direction="le")
    assert cert.refuted
    plane = cert.witness["plane"]
    value = cv.sec(R, cv.TwoPlane(np.array(plane["x"]), np.array(plane["y"])))
    assert value == pytest.approx(plane["sec"], abs=1e-12)
    assert value > 0.5 + 1e-9


def test_certify_bound_certifies_psd_shift_outside_dim_four():
    # R - k Id positive semidefinite proves sec >= k in any dimension
    R = fixture_operator("identity", 5)
    cert = ce.certify_bound(R, 0.5)
    assert cert.certified
    assert cert.method == "psd_shift"
    assert cert.witness["lambda_min"] == pytest.approx(0.5, abs=1e-12)
    assert ce.certify_bound(R, 0.5, strict=True).certified
    # at the boundary the strict bound cannot be separated from equality
    strict = ce.certify_bound(R, 1.0, strict=True)
    assert strict.verdict == "inconclusive_for_certification"
    assert strict.method == "psd_shift"


def test_certify_bound_four_form_shift_stays_inconclusive(rng):
    # sec cannot see a four-form: Id + omega has sec == 1, yet
    # Id + omega - Id = omega is indefinite.  The bound sec >= 1 is true,
    # so no plane refutes it, and omega = 0 does not certify it
    n = 5
    omega = cv.four_form_projection(random_operator(n, rng))
    assert np.linalg.eigvalsh(omega)[0] < -0.1
    R = cv.CurvatureOperator(n, np.eye(10) + omega)
    cert = ce.certify_bound(R, 1.0)
    assert cert.verdict == "inconclusive_for_certification"
    assert cert.method == "psd_shift"
    assert not cert.certified
    assert set(cert.witness) == {"lambda_min"}
    assert cert.witness["lambda_min"] < -0.1
    # the bracket shows how open the verdict is: [m, sec = 1], m - k being
    # the witness's lambda_min
    assert cert.bounds["lower"] - 1.0 == cert.witness["lambda_min"]
    assert cert.bounds["upper"] == pytest.approx(1.0, abs=1e-12)


def test_certify_bound_refutes_by_plane_outside_dim_four():
    R = fixture_operator("RL", 5)          # indefinite mixed curvatures
    cert = ce.certify_bound(R, 0.5)
    assert cert.refuted
    assert cert.method == "grassmann_opt"
    plane = cert.witness["plane"]
    value = cv.sec(R, cv.TwoPlane(np.array(plane["x"]), np.array(plane["y"])))
    assert value < 0.5 - 1e-9


def test_plane_refutation_solves_the_operator_once(monkeypatch):
    # lambda_min, |R|_2 and the search's starts all come from one eigh of
    # the N x N matrix; the search's own eigenproblems are (n-1) x (n-1)
    R = fixture_operator("RL", 5)
    solves = []

    def counted(solve):
        def run(a, *args, **kwargs):
            if np.shape(a) == R.mat.shape:
                solves.append(solve.__name__)
            return solve(a, *args, **kwargs)
        return run

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    cert = ce.certify_bound(R, 0.5)
    assert cert.refuted and cert.method == "grassmann_opt"
    assert solves == ["eigh"]


def test_certify_and_extremes_draw_no_random_numbers(rng, monkeypatch):
    # the plane search starts from R's rounded eigenvectors, so a verdict
    # is a function of (R, k, direction, strict) alone
    ops = {n: random_operator(n, rng) for n in (3, 4, 5, 6)}

    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was created")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for n in (3, 5, 6):
        top = float(np.linalg.eigvalsh(ops[n].mat)[-1])     # above every sec
        cert = ce.certify_bound(ops[n], top + 1.0)
        assert cert.refuted and cert.method == "grassmann_opt"
    for n in (4, 5):
        ce._solve.cache_clear()         # search cold, not from the records
        ext = ce.sec_extremes(ops[n])
        assert ext.min_value <= ext.max_value


def test_certify_bound_builds_no_harmonic_space_outside_dim_four(
        rng, monkeypatch):
    # the shift test and the plane search decide alone: no Harm^p basis
    # and no curvature term K(R) is built, whichever way the query goes
    omega = cv.four_form_projection(random_operator(5, rng))
    queries = (
        (fixture_operator("identity", 5), 0.5, "certified"),
        (fixture_operator("RL", 5), 0.5, "refuted"),
        (cv.CurvatureOperator(5, np.eye(10) + omega), 1.0,
         "inconclusive_for_certification"),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a Harm^p space was built")

    monkeypatch.setattr(wz, "curvature_term", refuse)
    monkeypatch.setattr(ml, "build_traceless", refuse)
    for R, k, verdict in queries:
        ge = ce.certify_bound(R, k)
        le = ce.certify_bound(cv.CurvatureOperator(5, -R.mat), -k,
                              direction="le")
        assert ge.verdict == le.verdict == verdict
        assert ge.method in ("psd_shift", "grassmann_opt")


def test_certify_bound_rejects_bad_direction():
    with pytest.raises(ValueError):
        ce.certify_bound(fixture_operator("identity", 4), 0.0,
                         direction="sideways")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_certify_bound_rejects_a_bound_that_is_not_finite(n):
    # sec >= +inf is false and sec <= -inf too; neither may be certified,
    # and no plane refutes sec >= nan
    R = fixture_operator("identity", n)
    for k in (math.inf, -math.inf, math.nan):
        for direction in ("ge", "le"):
            for strict in (False, True):
                with pytest.raises(ValueError, match="finite"):
                    ce.certify_bound(R, k, direction=direction,
                                     strict=strict)


# ---------------------------------------------------------------------------
# spectral implications used by the certification pipeline


def test_traceless_hessian_positivity_forces_ricci_positivity(rng):
    # whenever the degree-2 harmonic term is PSD, so is the Ricci form
    checked = 0
    for _ in range(20):
        R = random_operator(4, rng)
        lam2 = wz.curvature_term(R, ml.build_traceless(4, 2)).lambda_min()
        ric_min = float(np.linalg.eigvalsh(cv.ricci(R))[0])
        if lam2 >= 0:
            checked += 1
            assert ric_min >= -1e-10
    # make sure the premise is exercised at least once
    R = fixture_operator("identity", 4)
    lam2 = wz.curvature_term(R, ml.build_traceless(4, 2)).lambda_min()
    assert lam2 > 0
    assert float(np.linalg.eigvalsh(cv.ricci(R))[0]) > 0


def test_star_term_acts_as_four_times_star():
    star_op = fixture_operator("hodge-star", 4)
    K = wz.curvature_term(star_op, ml.build_exterior(4, 2))
    assert np.allclose(K.mat, 4.0 * cv.four_form_matrix(4), atol=1e-12)


def test_selfdual_energy_identity_and_lower_bound(rng):
    # on self-dual forms the star term contributes exactly 4 |alpha|^2,
    # so K(S - f0 star) >= -4 f0 |alpha|^2 when S is PSD and f0 <= 0
    star = cv.four_form_matrix(4)
    Kstar = wz.curvature_term(fixture_operator("hodge-star", 4),
                              ml.build_exterior(4, 2))
    for _ in range(5):
        raw = rng.standard_normal(6)
        plus, _ = selfdual_split(raw)
        assert float(plus @ Kstar.mat @ plus) == pytest.approx(
            4.0 * float(plus @ plus), abs=1e-10)

        M = rng.standard_normal((6, 6))
        S = M @ M.T
        f0 = -abs(rng.standard_normal())
        R = cv.CurvatureOperator(4, S - f0 * star)
        K = wz.curvature_term(R, ml.build_exterior(4, 2))
        energy = float(plus @ K.mat @ plus)
        assert energy >= -4.0 * f0 * float(plus @ plus) - 1e-9
