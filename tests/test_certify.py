"""Star-shift certification, Grassmannian optimization, hierarchy checks."""

import json
import math

import numpy as np
import pytest

from curvelab import certify as ce
from curvelab import curvature as cv
from curvelab import multilinear as ml
from curvelab import weitzenbock as wz
from curvelab.fixtures import fixture_operator

from conftest import random_operator, selfdual_split


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
    # then bisects instead of creeping.  The budget stated above _GAP_TOL
    # is attained from a start at either end.
    budget = ce._FAST_PROBES + 1 + math.ceil(math.log2(2.0 / ce._T_TOL))
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
        plane = ce._thorpe_plane(w)
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


def test_kinked_maxima_are_refuted_by_a_minimizing_plane():
    # no probe lands on the kink, so the bottom eigenvectors on its two
    # sides are mixed into a plane, as on a probe at a kink
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


# ---------------------------------------------------------------------------
# exact minimum sectional curvature in dimension four


def test_shifted_minimum_on_fixtures():
    val, t, _ = ce.thorpe_sec_min(fixture_operator("identity", 4))
    assert val == pytest.approx(1.0, abs=1e-9)
    assert t == pytest.approx(0.0, abs=1e-6)

    val, t, _ = ce.thorpe_sec_min(fixture_operator("hodge-star", 4))
    assert val == pytest.approx(0.0, abs=1e-9)
    assert t == pytest.approx(-1.0, abs=1e-6)

    val, t, _ = ce.thorpe_sec_min(fixture_operator("s2xs2", 4))
    assert val == pytest.approx(0.0, abs=1e-9)
    assert t == pytest.approx(0.0, abs=1e-5)


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
    for _ in range(10):
        R = random_operator(4, rng)
        exact, _, _ = ce.thorpe_sec_min(R)
        ext = ce.sec_extremes(R)
        assert ext.min_value == pytest.approx(exact, abs=1e-6)


def test_extremes_are_deterministic(rng):
    R = random_operator(5, rng)
    a = ce.sec_extremes(R)
    b = ce.sec_extremes(R)
    assert a.min_value == b.min_value and a.max_value == b.max_value


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
    e = np.eye(4)
    R = fixture_operator("s2xs2", 4)
    for k, direction, plane in ((0.01, "ge", cv.TwoPlane(e[0], e[1])),
                                (0.99, "le", cv.TwoPlane(e[0], e[2]))):
        assert ce.certify_bound(R, k, direction=direction).refuted
        monkeypatch.setattr(ce, "_thorpe_plane", lambda *args: plane)
        ce._n4_solve.cache_clear()
        cert = ce.certify_bound(R, k, direction=direction)
        assert cert.verdict == "inconclusive_for_certification"
        assert "plane" not in cert.witness
        monkeypatch.undo()
        ce._n4_solve.cache_clear()


# ---------------------------------------------------------------------------
# one star-shift solve per n = 4 operator


def _counted_solves(monkeypatch):
    """Clear the memo and list the operators' bytes that the star-shift
    search solves from here on."""
    solves = []
    solve = ce.thorpe_sec_min

    def counted(R, *args, **kwargs):
        solves.append(R.mat.tobytes())
        return solve(R, *args, **kwargs)

    monkeypatch.setattr(ce, "thorpe_sec_min", counted)
    ce._n4_solve.cache_clear()
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
        ce._n4_solve.cache_clear()
        warm = [json.dumps(ce.certify_bound(Rq, k, direction=direction,
                                            strict=strict).to_dict())
                for Rq, k, direction, strict in queries]
        for doc, (Rq, k, direction, strict) in zip(warm, queries):
            ce._n4_solve.cache_clear()
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
        ce._n4_solve.cache_clear()
        cold.append(json.dumps(ce.certify_bound(
            Rq, k, direction=direction, strict=strict).to_dict()))
    ce._n4_solve.cache_clear()
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
    R = fixture_operator("s2xs2", 4)
    first = ce.certify_bound(R, 0.01)
    expected = json.dumps(first.to_dict())
    first.witness["plane"]["x"][0] = 7.0
    first.witness["plane"]["y"].append(1.0)
    assert json.dumps(ce.certify_bound(R, 0.01).to_dict()) == expected
    plane = ce._n4_solve(R.mat.tobytes())[4]
    for a in (plane.x, plane.y):
        with pytest.raises(ValueError):
            a[0] = 7.0
    assert json.dumps(ce.certify_bound(R, 0.01).to_dict()) == expected


def test_certificate_serialization():
    cert = ce.certify_bound(fixture_operator("identity", 4), 0.25)
    d = cert.to_dict()
    assert d["verdict"] == "certified" and d["direction"] == "ge"
    assert set(d) == {"n", "k", "direction", "verdict", "method", "strict",
                      "witness", "tolerances"}


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
