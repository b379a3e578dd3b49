"""Closed forms of the curvature term against brute-force assembly."""

import numpy as np
import pytest

from curvelab import closedform as cf
from curvelab import multilinear as ml
from curvelab import weitzenbock as wz
from curvelab.curvature import CurvatureOperator, decompose
from curvelab.fixtures import fixture_operator

from conftest import random_operator


def test_coefficient_values_by_hand():
    # wedge: (2(n-p)/(p-1), (n-2p)/(p-1), -2, 4)
    assert cf.wedge_coefficients(6, 3) == pytest.approx((3.0, 0.0, -2.0, 4.0))
    assert cf.wedge_coefficients(4, 2) == pytest.approx((4.0, 0.0, -2.0, 4.0))
    assert cf.wedge_coefficients(7, 4) == pytest.approx(
        (2.0, -1.0 / 3.0, -2.0, 4.0))
    # sym: ((n+p-2)/(n(p-1)), (n+2p-4)/(n(p-1)), 1)
    assert cf.sym_coefficients(4, 2) == pytest.approx((1.0, 1.0, 1.0))
    assert cf.sym_coefficients(5, 3) == pytest.approx((0.6, 0.7, 1.0))


def test_validity_windows():
    with pytest.raises(ValueError):
        cf.wedge_coefficients(4, 3)       # p = n - 1 is out of range
    with pytest.raises(ValueError):
        cf.wedge_coefficients(5, 1)
    with pytest.raises(ValueError):
        cf.sym_coefficients(5, 1)
    # boundary cases are in range
    assert cf.wedge_coefficients(4, 2) is not None
    assert cf.sym_coefficients(4, 2) is not None


@pytest.mark.parametrize("n,p", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_wedge_closed_form_equals_brute_force(n, p, rng):
    for _ in range(3):
        R = cf.random_operator(n, rng)
        direct = wz.curvature_term(R, ml.build_exterior(n, p)).mat
        closed = cf.thmB_wedge_rhs(R, p).mat
        assert np.abs(direct - closed).max() < 1e-8


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (5, 2), (5, 3)])
def test_sym_closed_form_equals_brute_force(n, p, rng):
    for _ in range(3):
        R = cf.random_operator(n, rng)
        direct = wz.curvature_term(R, ml.build_traceless(n, p)).mat
        closed = cf.thmB_sym_rhs(R, p).mat
        assert np.abs(direct - closed).max() < 1e-8
        sd = cf._spectral_distance(direct, closed)
        assert sd < 1e-8


def test_closed_form_kills_four_form_part(rng):
    # the traceless-symmetric closed form must not see the four-form part
    n, p = 5, 3
    R = cf.random_operator(n, rng)
    dec = decompose(R)
    stripped = CurvatureOperator(n, R.mat - dec.part("W4"))
    full = cf.thmB_sym_rhs(R, p).mat
    bare = cf.thmB_sym_rhs(stripped, p).mat
    assert np.abs(full - bare).max() < 1e-9


def test_wedge_form_sees_all_four_parts():
    # at p = 2 the four-form term acts by 4x the operator itself: the star
    # contributes K(star, two-forms) = 4 star, which is nonzero
    star = fixture_operator("hodge-star", 4)
    closed = cf.thmB_wedge_rhs(star, 2).mat
    np.testing.assert_allclose(closed, 4.0 * star.mat, atol=1e-10)


def test_sym_p2_reduces_to_sum_of_parts(rng):
    # at p = 2 all three coefficients are 1, so the closed form is just
    # K(R_U + R_L + R_W, Harm^2) = K(R - R_four_form, Harm^2)
    n = 4
    R = cf.random_operator(n, rng)
    dec = decompose(R)
    stripped = CurvatureOperator(n, R.mat - dec.part("W4"))
    closed = cf.thmB_sym_rhs(R, 2).mat
    direct = wz.curvature_term(stripped, ml.build_traceless(n, 2)).mat
    assert np.abs(closed - direct).max() < 1e-9


def test_round_operator_wedge_closed_form():
    # pure trace part: K = p(n - p) Id on p-forms, via the closed form
    n, p = 6, 3
    R = fixture_operator("scal-part", n)
    closed = cf.thmB_wedge_rhs(R, p).mat
    np.testing.assert_allclose(closed, p * (n - p) * np.eye(20), atol=1e-10)


def test_random_operator_is_seed_deterministic():
    a = cf.random_operator(4, np.random.default_rng(7))
    b = cf.random_operator(4, np.random.default_rng(7))
    np.testing.assert_array_equal(a.mat, b.mat)


def test_verify_report_structure_and_pass():
    d = cf.verify_thmB(n_values=(4,), p_values=(2,), trials=3, seed=1)
    assert d["passed"]
    assert d["worst"] < 1e-8
    assert len(d["rows"]) == 2            # one wedge row, one sym row
    kinds = {row["rep"] for row in d["rows"]}
    assert kinds == {"wedge", "sym0"}
    assert d["passed"] is True
    assert d["rows"][0]["trials"] == 3


def test_verify_skips_wedge_outside_window():
    # at n = 4, p = 3 only the traceless-symmetric display exists
    report = cf.verify_thmB(n_values=(4,), p_values=(3,), trials=2, seed=2)
    assert report["passed"]
    assert {row["rep"] for row in report["rows"]} == {"sym0"}
