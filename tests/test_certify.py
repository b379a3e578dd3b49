"""Star-shift certification, Grassmannian optimization, hierarchy checks."""

import math

import numpy as np
import pytest

from curvelab import certify as ce
from curvelab import curvature as cv
from curvelab import multilinear as ml
from curvelab import weitzenbock as wz
from curvelab.fixtures import fixture_operator

from conftest import (Polynomial, polynomial_coords, random_operator,
                      selfdual_split)


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
    # the Newton point of the second end probe is the maximizer
    t, val = ce.concave_max(
        lambda t: (3.0 - (t - 0.7) ** 2, -2.0 * (t - 0.7), -2.0), -2.0, 2.0)
    assert t == pytest.approx(0.7, abs=1e-9)
    assert val == pytest.approx(3.0, abs=1e-12)


def test_concave_max_kinked_concave():
    # at the kink any slope in [-1, 1] is a supergradient
    t, val = ce.concave_max(
        lambda t: (-abs(t - 0.3), -math.copysign(1.0, t - 0.3), 0.0),
        -1.0, 1.0)
    assert t == pytest.approx(0.3, abs=1e-9)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_concave_max_linear_edge():
    # monotone concave: the maximum sits at an endpoint
    t, val = ce.concave_max(lambda t: (t, 1.0, 0.0), 0.0, 1.0)
    assert t == pytest.approx(1.0, abs=1e-8)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_concave_max_rejects_bimodal():
    with pytest.raises(RuntimeError):
        ce.concave_max(lambda t: (abs(t), math.copysign(1.0, t), 0.0),
                       -2.0, 2.0)


def test_concave_max_bisects_past_a_bad_curvature_estimate():
    # a curvature 1e12 times too large makes every Newton step tiny; after
    # _FAST_PROBES probes the search bisects instead of creeping
    probes = []

    def f(t):
        probes.append(t)
        return -abs(t - 0.3), -math.copysign(1.0, t - 0.3), -1e12

    t, val = ce.concave_max(f, -1.0, 1.0)
    assert t == pytest.approx(0.3, abs=1e-9)
    assert len(probes) <= ce._FAST_PROBES + math.log2(2.0 / ce._T_TOL) + 1


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
    # the golden-section search took 56 probes on every operator
    counts = []
    search = ce.concave_max

    def counted(f, lo, hi):
        calls = []

        def g(t):
            calls.append(t)
            return f(t)
        result = search(g, lo, hi)
        counts.append(len(calls))
        return result

    monkeypatch.setattr(ce, "concave_max", counted)
    for R in seeded_n4_operators():
        ce.thorpe_sec_min(R)
    assert len(counts) == 200
    assert np.median(counts) <= 6
    assert max(counts) <= 11


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

    def counted_search(f, lo, hi):
        def g(t):
            probes.append(t)
            return f(t)
        return search(g, lo, hi)

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
    ext = ce.sec_extremes(fixture_operator("identity", 4), restarts=10)
    assert ext.min_value == pytest.approx(1.0, abs=1e-8)
    assert ext.max_value == pytest.approx(1.0, abs=1e-8)

    ext = ce.sec_extremes(fixture_operator("hodge-star", 4), restarts=10)
    assert ext.min_value == pytest.approx(0.0, abs=1e-8)
    assert ext.max_value == pytest.approx(0.0, abs=1e-8)

    ext = ce.sec_extremes(fixture_operator("s2xs2", 4), restarts=10)
    assert ext.min_value == pytest.approx(0.0, abs=1e-8)
    assert ext.max_value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
def test_extreme_planes_reproduce_reported_values(rng, scale):
    R = cv.CurvatureOperator(4, scale * random_operator(4, rng).mat)
    ext = ce.sec_extremes(R, restarts=20, seed=5)
    assert cv.sec(R, ext.min_plane) == pytest.approx(ext.min_value, rel=1e-12)
    assert cv.sec(R, ext.max_plane) == pytest.approx(ext.max_value, rel=1e-12)
    assert ext.min_value <= ext.max_value
    assert 0.0 < ext.converged_fraction <= 1.0


def test_extremes_match_exact_minimum_on_random_operators(rng):
    for _ in range(10):
        R = random_operator(4, rng)
        exact, _, _ = ce.thorpe_sec_min(R)
        ext = ce.sec_extremes(R, restarts=12, seed=11)
        assert ext.min_value == pytest.approx(exact, abs=1e-6)


def test_extremes_deterministic_for_fixed_seed(rng):
    R = random_operator(5, rng)
    a = ce.sec_extremes(R, restarts=15, seed=3)
    b = ce.sec_extremes(R, restarts=15, seed=3)
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
    # outside dimension four the plane search and the hierarchy scale too
    RL = fixture_operator("RL", 5)
    for scale in (1e-12, 1.0, 1e8):
        k = 0.5 * scale
        cert = ce.certify_bound(cv.CurvatureOperator(5, scale * RL.mat), k,
                                p_max=2, seed=2)
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
    # optimum that does not violate the bound refutes nothing
    e = np.eye(4)
    R = fixture_operator("s2xs2", 4)
    for k, direction, plane in ((0.01, "ge", cv.TwoPlane(e[0], e[1])),
                                (0.99, "le", cv.TwoPlane(e[0], e[2]))):
        assert ce.certify_bound(R, k, direction=direction).refuted
        monkeypatch.setattr(ce, "_thorpe_plane", lambda *args: plane)
        cert = ce.certify_bound(R, k, direction=direction)
        assert cert.verdict == "inconclusive_for_certification"
        assert "plane" not in cert.witness
        monkeypatch.undo()


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
    assert res.refuted_at is None
    assert res.verdict == "inconclusive_for_certification"
    assert [p for p, _ in res.rows] == [1, 2, 3, 4]
    assert all(abs(v) < 1e-12 for _, v in res.rows)


def test_hierarchy_refutes_above_max_curvature():
    # shifting past the round metric's curvature shows up at the first level
    R = fixture_operator("identity", 5)
    res = ce.hierarchy_check(R, 1.05)
    assert res.refuted_at == 1
    assert res.rows[0][1] == pytest.approx(-0.05 * 4, abs=1e-10)
    assert res.verdict == "refuted"
    d = res.to_dict()
    assert d["rows"][0]["p"] == 1 and d["refuted_at"] == 1


def test_witness_search_finds_first_level():
    w = ce.witness_search(fixture_operator("identity", 4), 2.0)
    assert w is not None and w.p == 1
    assert w.value == pytest.approx(-3.0, abs=1e-9)
    d = w.to_dict()
    assert all(sum(e) == 1 for e, _ in d["poly"])
    assert d["p"] == 1 and d["value"] == pytest.approx(-3.0, abs=1e-9)


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
    # the JSON polynomial, read back through the dict oracle
    poly = Polynomial(5, {tuple(e): c for e, c in w.to_dict()["poly"]})
    coords = polynomial_coords(space, poly)
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
    cert = ce.certify_bound(R, 0.5, p_max=3)
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
    # Id + omega - Id = omega is indefinite.  The bound sec >= 1 is true
    # and passes every hierarchy level (K vanishes on four-forms), but
    # passing necessary conditions is not a certificate
    n = 5
    omega = cv.four_form_projection(random_operator(n, rng))
    assert np.linalg.eigvalsh(omega)[0] < -0.1
    R = cv.CurvatureOperator(n, np.eye(10) + omega)
    cert = ce.certify_bound(R, 1.0, p_max=3)
    assert cert.verdict == "inconclusive_for_certification"
    assert cert.method == "hierarchy"
    assert not cert.certified
    rows = cert.witness["hierarchy"]["rows"]
    assert len(rows) == 3
    assert cert.witness["hierarchy"]["refuted_at"] is None


def test_certify_bound_refutes_by_plane_outside_dim_four():
    R = fixture_operator("RL", 5)          # indefinite mixed curvatures
    cert = ce.certify_bound(R, 0.5, p_max=2, seed=2)
    assert cert.refuted
    assert cert.method in ("grassmann_opt", "hierarchy")
    if cert.method == "grassmann_opt":
        plane = cert.witness["plane"]
        value = cv.sec(R, cv.TwoPlane(np.array(plane["x"]),
                                      np.array(plane["y"])))
        assert value < 0.5 - 1e-9


def test_hierarchy_refutation_carries_its_own_witness(monkeypatch):
    # with the plane search out of the way the hierarchy refutes; its
    # witness comes from the same assembly, one K(R) per level
    R = fixture_operator("identity", 5)
    monkeypatch.setattr(ce, "_sec_min", lambda *args, **kwargs:
                        (math.inf, None, 0))
    assembled = []
    real = wz.curvature_term
    monkeypatch.setattr(wz, "curvature_term", lambda S, space: (
        assembled.append(space.p) or real(S, space)))
    cert = ce.certify_bound(R, 1.05, p_max=3)
    assert cert.refuted and cert.method == "hierarchy"
    assert assembled == [1, 2, 3]
    direction = cert.witness["eigen_direction"]
    assert direction["p"] == 1
    assert direction["value"] == pytest.approx(-0.05 * 4, abs=1e-10)
    assert ce.hierarchy_check(R, 1.05, p_max=3).witness.to_dict() == direction


def test_certify_bound_rejects_bad_direction():
    with pytest.raises(ValueError):
        ce.certify_bound(fixture_operator("identity", 4), 0.0,
                         direction="sideways")


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
