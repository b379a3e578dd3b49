"""Acceptance battery: every headline guarantee at its shipping tolerance.

Each test covers one criterion end to end and records a single PASS/FAIL
checklist line (echoed in the terminal summary) with the measured worst
case and runtime, so a full run reads as a release checklist.
"""

import time
from dataclasses import dataclass
from math import factorial

import numpy as np
import pytest

import curvelab
from curvelab import certify as ce
from curvelab import closedform as cf
from curvelab import curvature as cv
from curvelab import knalgebra as kn
from curvelab import littlewood as lw
from curvelab import multilinear as ml
from curvelab import spherical as sp
from curvelab import weitzenbock as wz
from curvelab.fixtures import fixture_operator

from conftest import (acceptance_line, circle_harmonic, random_operator,
                      selfdual_split, wedge_coords)


# ---------------------------------------------------------------------------
# 1. scalar identities at the reference elements


def test_a1_reference_element_scalars():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 5, 6):
        for p in range(2, 7):
            phi = circle_harmonic(n, p)
            space = ml.build_traceless(n, p)
            v = space.change_of_basis @ phi
            base = 2.0 ** (p - 2) * p * p * factorial(p - 1)
            for name, expect in (
                ("scal-part", (n + p - 2) * 2.0 * base),
                ("traceless-ricci", (n + 2 * p - 4) * base),
                ("weyl-type", (2 * p - 2) * base),
            ):
                K = wz.curvature_term(fixture_operator(name, n), space)
                worst = max(worst, abs(v @ K.mat @ v - expect))
            worst = max(
                worst, abs(phi @ phi - 2.0 ** (p - 1) * factorial(p)))
            if 2 <= p <= n - 2:
                wspace = ml.build_exterior(n, p)
                beta = wedge_coords(
                    wspace, [(1.0, tuple(range(1, p + 1)))])
                tail = tuple(range(5, p + 3))
                gamma = wedge_coords(
                    wspace, [(1.0, (1, 2) + tail), (1.0, (3, 4) + tail)])
                for name, vec, expect in (
                    ("scal-part", beta, float(p * (n - p))),
                    ("traceless-ricci", beta, float(n - 2 * p)),
                    ("weyl-type", gamma, -8.0),
                    ("four-form", gamma, 8.0),
                ):
                    K = wz.curvature_term(fixture_operator(name, n), wspace)
                    worst = max(worst, abs(vec @ K.mat @ vec - expect))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 60.0
    assert acceptance_line(
        "1 reference-element scalars (n 4-6, degree 2-6)", ok,
        f"worst abs err {worst:.2e}, {dt:.1f}s"), worst


# ---------------------------------------------------------------------------
# 2. closed forms equal brute-force assembly


def test_a2_closed_form_operator_equality():
    t0 = time.perf_counter()
    report = cf.verify_thmB(n_values=(4, 5, 6), p_values=(2, 3, 4),
                            trials=10, seed=curvelab.DEFAULT_SEED)
    dt = time.perf_counter() - t0
    worst = report["worst"]
    ok = report["passed"] and worst <= 1e-8 and dt < 60.0
    assert acceptance_line(
        "2 closed-form curvature terms vs direct assembly (10 ops/case)", ok,
        f"worst discrepancy {worst:.2e}, {dt:.1f}s"), worst


# ---------------------------------------------------------------------------
# 3. degree-one and top-degree terms reduce to the Ricci form


def test_a3_ricci_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for n in range(4, 8):
        vectors = ml.build_exterior(n, 1)
        degree_one = ml.build_traceless(n, 1)
        top = ml.build_exterior(n, n - 1)
        # (n-1)-forms map to vectors: the complement of j goes to
        # (-1)^(j-1) e_j, matching e_j wedge (complement) = (-1)^(j-1) vol
        P = np.zeros((n, n))
        for col, I in enumerate(ml.wedge_basis(n, n - 1)):
            j = next(m for m in range(1, n + 1) if m not in I)
            P[j - 1, col] = (-1.0) ** (j - 1)
        for _ in range(20):
            R = random_operator(n, rng)
            ric = cv.ricci(R)
            worst = max(
                worst,
                np.abs(wz.curvature_term(R, vectors).mat - ric).max(),
                np.abs(wz.curvature_term(R, degree_one).mat - ric).max(),
                np.abs(P @ wz.curvature_term(R, top).mat @ P.T - ric).max(),
            )
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10
    assert acceptance_line(
        "3 degree-1 and top-degree terms equal the Ricci form (n 4-7)", ok,
        f"worst entry err {worst:.2e}, {dt:.1f}s"), worst


# ---------------------------------------------------------------------------
# 4. operators in the four-form subspace act by zero on harmonics


def test_a4_four_form_annihilation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    worst = 0.0
    for n in (4, 5, 6):
        for p in range(1, 6):
            space = ml.build_traceless(n, p)
            candidates = [fixture_operator("four-form", n)]
            for _ in range(3):
                raw = random_operator(n, rng)
                candidates.append(cv.CurvatureOperator(
                    n, cv.four_form_projection(raw)))
            for R in candidates:
                worst = max(
                    worst, np.abs(wz.curvature_term(R, space).mat).max())
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10
    assert acceptance_line(
        "4 four-form subspace annihilates harmonics (n 4-6, degree <= 5)",
        ok, f"worst entry {worst:.2e}, {dt:.1f}s"), worst


# ---------------------------------------------------------------------------
# 5. iterated metric powers reach factorial multiples of the identity


def test_a5_metric_power_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for algebra in ("wedge", "sym", "sym0"):
        for n in (4, 5):
            for p in range(2, 5):
                it = kn.iterated_g_power(algebra, n, p)
                expect = factorial(p) * np.eye(it.mat.shape[0])
                worst = max(worst, np.abs(it.mat - expect).max())
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10
    assert acceptance_line(
        "5 iterated metric powers equal p! x identity (all three products)",
        ok, f"worst entry err {worst:.2e}, {dt:.1f}s"), worst


# ---------------------------------------------------------------------------
# 6. the sphere-integral representation of the curvature term


def test_a6_integral_representation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(59)
    worst = 0.0
    for n in (3, 4, 5):
        for p in (2, 3, 4):
            R = random_operator(n, rng)
            report = sp.verify_integral_formula(
                R, p, trials=10, seed=1000 * n + p)
            worst = max(worst, report["worst"])
    dt = time.perf_counter() - t0
    ok = worst <= 1e-7
    assert acceptance_line(
        "6 sphere-integral representation (10 pairs/case, n 3-5)", ok,
        f"worst rel err {worst:.2e}, {dt:.1f}s"), worst


# ---------------------------------------------------------------------------
# 7. branching-count tables


def test_a7_branching_tables():
    t0 = time.perf_counter()
    ok = True
    for p in range(2, 9):
        sym_table = lw.verify_lemma_sym(p)
        wedge_table = lw.verify_lemma_wedge(p)
        ok = ok and sym_table["counts"] == {"U": 1, "L": 1, "W": 1, "W4": 0}
        ok = ok and wedge_table["counts"] == {"U": 1, "L": 1, "W": 1, "W4": 1}
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert acceptance_line(
        "7 branching-count tables exact (degrees 2-8)", ok, f"{dt:.1f}s")


# ---------------------------------------------------------------------------
# 8 & 9. certification battery in dimension four


@dataclass
class BatchEntry:
    R: object
    exact_min: float
    opt_min: float
    lam2: float
    ric_min: float


@pytest.fixture(scope="module")
def certification_batch():
    rng = np.random.default_rng(curvelab.DEFAULT_SEED)
    space2 = ml.build_traceless(4, 2)
    entries = []
    for i in range(200):
        R = random_operator(4, rng)
        exact_min, _, _ = ce.thorpe_sec_min(R)
        entries.append(BatchEntry(
            R=R,
            exact_min=exact_min,
            opt_min=ce._sec_min(R)[0],
            lam2=wz.curvature_term(R, space2).lambda_min(),
            ric_min=float(np.linalg.eigvalsh(cv.ricci(R))[0]),
        ))
    return entries


def test_a8_exact_vs_optimized_minimum(certification_batch):
    t0 = time.perf_counter()
    problems = []

    # two-sided agreement on 200 random operators
    gap = max(abs(e.exact_min - e.opt_min) for e in certification_batch)
    if gap > 1e-6:
        problems.append(f"optimizer gap {gap:.2e}")

    # the named fixtures, by both routes
    for name, expected in (("identity", 1.0), ("hodge-star", 0.0),
                           ("s2xs2", 0.0)):
        R = fixture_operator(name, 4)
        exact, _, _ = ce.thorpe_sec_min(R)
        opt = ce._sec_min(R)[0]
        if abs(exact - expected) > 1e-6 or abs(opt - expected) > 1e-6:
            problems.append(f"{name} fixture: exact {exact}, opt {opt}")

    # verdicts around the product-of-spheres boundary
    s2xs2 = fixture_operator("s2xs2", 4)
    if not ce.certify_bound(s2xs2, 0.0).certified:
        problems.append("s2xs2 not certified at 0")
    refutation = ce.certify_bound(s2xs2, 0.01)
    if not refutation.refuted:
        problems.append("s2xs2 not refuted at 0.01")
    else:
        plane = refutation.witness["plane"]
        val = cv.sec(s2xs2, cv.TwoPlane(np.array(plane["x"]),
                                        np.array(plane["y"])))
        if not (val < 0.01 - 1e-9 and abs(val - plane["sec"]) < 1e-9):
            problems.append(f"unsound refutation plane ({val})")

    # verdict coherence just below and above the true minimum (subsample)
    for e in certification_batch[:10]:
        below = ce.certify_bound(e.R, e.exact_min - 2e-6)
        above = ce.certify_bound(e.R, e.exact_min + 2e-6)
        if not below.certified:
            problems.append("bound below the minimum not certified")
        if not above.refuted:
            problems.append("bound above the minimum not refuted")
        elif "plane" in above.witness:
            if above.witness["plane"]["sec"] >= e.exact_min + 2e-6:
                problems.append("refutation plane does not violate the bound")

    # spectral implication: nonnegative degree-2 term forces nonnegative Ricci
    premises = [e for e in certification_batch if e.lam2 >= 0.0]
    bad = [e for e in premises if e.ric_min < -1e-10]
    if bad:
        problems.append(f"{len(bad)} implication failures")

    # pointwise self-dual energy identity for the star term
    Kstar = wz.curvature_term(fixture_operator("hodge-star", 4),
                              ml.build_exterior(4, 2)).mat
    rng = np.random.default_rng(71)
    sd_worst = 0.0
    for _ in range(25):
        plus, _ = selfdual_split(rng.standard_normal(6))
        sd_worst = max(sd_worst, abs(
            float(plus @ Kstar @ plus) - 4.0 * float(plus @ plus)))
    if sd_worst > 1e-10:
        problems.append(f"self-dual energy identity off by {sd_worst:.2e}")

    dt = time.perf_counter() - t0
    ok = not problems
    detail = (f"200 ops, worst gap {gap:.2e}, "
              f"{len(premises)} implication premises, "
              f"self-dual identity {sd_worst:.2e}, {dt:.1f}s")
    if problems:
        detail += " | " + "; ".join(problems)
    assert acceptance_line(
        "8 exact vs optimized minimum, verdicts, spectral implication", ok,
        detail), problems


def test_a9_certified_bounds_pass_hierarchy(certification_batch):
    t0 = time.perf_counter()
    lowest = float("inf")
    failures = 0
    checked = 0
    cases = [(e.R, e.exact_min - 2e-6) for e in certification_batch]
    cases += [(fixture_operator("identity", 4), 1.0 - 2e-6),
              (fixture_operator("hodge-star", 4), -2e-6),
              (fixture_operator("s2xs2", 4), -2e-6)]
    for R, k in cases:
        if not ce.certify_bound(R, k).certified:
            failures += 1
            continue
        checked += 1
        hier = ce.hierarchy_check(R, k, p_max=6)
        low = min(v for _, v in hier.rows)
        lowest = min(lowest, low)
        if low < -1e-8:
            failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and checked == len(cases)
    assert acceptance_line(
        "9 certified bounds pass all six hierarchy levels", ok,
        f"{checked} certified pairs, most negative level {lowest:.2e}, "
        f"{dt:.1f}s"), failures
