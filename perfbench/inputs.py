"""Exact-answer curvature operators for the benchmark, built from a seed.

Every seeded operator has the form ``R = m Id + P + w`` on the two-forms
of R^n (lexicographic pair basis, ``sec(x^y) = R(x^y, x^y)``):

* ``P`` is positive semidefinite and annihilates the pair coordinates of
  one chosen plane ``s0 = x0 ^ y0``;
* ``w`` is an alternating four-form, which no sectional curvature sees.

So ``sec = m + <P s, s> >= m`` on every plane and ``sec(s0) = m``: the
minimum sectional curvature is exactly ``m`` and ``s0`` attains it
(Bettiol & Mendes, Math. Ann. 2017).  The fixtures used beside the seeded
operators have closed-form extremes, stated in ``FIXTURE_EXTREMES``.

Nothing here imports curvelab: the answers are computed apart from the
program.  ``python3 perfbench/inputs.py --seed 7`` runs the self-check.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np


def pairs(n):
    """Pair labels (i, j), 0-based, i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def pair_dim(n):
    return n * (n - 1) // 2


def plane_coords(x, y):
    """Pair coordinates of x ^ y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.array([x[i] * y[j] - x[j] * y[i] for (i, j) in pairs(x.size)])


def sec_of(mat, x, y):
    """Sectional curvature of the plane spanned by orthonormal x, y."""
    s = plane_coords(x, y)
    return float(s @ mat @ s)


def _quadruple_couplings(n, quad):
    """The three pair couplings of a four-form e_i^e_j^e_k^e_l, with signs."""
    i, j, k, l = quad
    index = {p: a for a, p in enumerate(pairs(n))}
    return [(index[(i, j)], index[(k, l)], 1.0),
            (index[(i, k)], index[(j, l)], -1.0),
            (index[(i, l)], index[(j, k)], 1.0)]


def four_form(n, coeffs):
    """Matrix on two-forms of sum_q coeffs[q] e_q over quadruples q."""
    W = np.zeros((pair_dim(n), pair_dim(n)))
    for quad, c in zip(itertools.combinations(range(n), 4), coeffs):
        for a, b, s in _quadruple_couplings(n, quad):
            W[a, b] += s * c
            W[b, a] += s * c
    return W


# ---------------------------------------------------------------------------
# fixtures with closed-form extremes, built here independently


def identity_matrix(n):
    return np.eye(pair_dim(n))


def s2xs2_matrix():
    """Product of two unit 2-spheres: sec = s_12^2 + s_34^2 in [0, 1]."""
    M = np.zeros((6, 6))
    M[0, 0] = M[5, 5] = 1.0
    return M


def hodge_star_matrix():
    """Hodge star of R^4: a pure four-form, so sec = 0 on every plane."""
    return four_form(4, [1.0])


def traceless_ricci_matrix(n):
    """Metric product of g with h = diag(1, 0, ..., 0, -1).

    sec(x^y) = h(x, x) + h(y, y), so the extremes are the sums of the two
    smallest and of the two largest eigenvalues of h: -1 and 1.
    """
    h = np.zeros(n)
    h[0], h[-1] = 1.0, -1.0
    P = pairs(n)
    M = np.zeros((len(P), len(P)))
    for a, (i, j) in enumerate(P):
        M[a, a] = h[i] + h[j]
    return M


# name -> (matrix builder taking n, (min sec, max sec))
FIXTURE_EXTREMES = {
    "identity": (identity_matrix, (1.0, 1.0)),
    "s2xs2": (lambda n: s2xs2_matrix(), (0.0, 1.0)),
    "hodge-star": (lambda n: hodge_star_matrix(), (0.0, 0.0)),
    "RL": (traceless_ricci_matrix, (-1.0, 1.0)),
}


def fixture(name, n):
    build, (lo, hi) = FIXTURE_EXTREMES[name]
    return build(n), lo, hi


# ---------------------------------------------------------------------------
# seeded exact-answer operators


class ExactOperator:
    """``m Id + P + w`` with its ingredients kept for the self-check."""

    def __init__(self, n, m, x0, y0, P, W):
        self.n = n
        self.m = float(m)
        self.x0 = x0
        self.y0 = y0
        self.P = P
        self.W = W
        self.mat = m * np.eye(pair_dim(n)) + P + W


def _lambda_min(M):
    return float(np.linalg.eigvalsh(M)[0])


# added to P off the plane s0, so that s0 is a strict minimum
GAP = 0.5


def exact_operator(n, rng):
    """One seeded exact-answer operator, with m drawn from [-1, 1]."""
    N = pair_dim(n)
    m = rng.uniform(-1.0, 1.0)
    q = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    x0, y0 = q[:, 0], q[:, 1]
    s0 = plane_coords(x0, y0)
    G = rng.standard_normal((N, N)) / math.sqrt(N)
    proj = np.eye(N) - np.outer(s0, s0)
    P = proj @ (GAP * np.eye(N) + G @ G.T) @ proj
    P = 0.5 * (P + P.T)
    W = four_form(n, rng.standard_normal(math.comb(n, 4)))
    return ExactOperator(n, m, x0, y0, P, W)


def random_plane(n, rng):
    q = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    return q[:, 0], q[:, 1]


# ---------------------------------------------------------------------------
# self-check


def selfcheck(op, rng, planes=20):
    """Raise AssertionError unless ``op`` has its claimed exact answer."""
    n, N = op.n, pair_dim(op.n)
    scale = max(1.0, float(np.abs(op.mat).max()))
    tol = 1e-12 * scale
    s0 = plane_coords(op.x0, op.y0)
    if abs(np.linalg.norm(s0) - 1.0) > 1e-12:
        raise AssertionError("s0 is not a unit plane")
    if np.abs(op.P - op.P.T).max() > tol:
        raise AssertionError("P is not symmetric")
    if _lambda_min(op.P) < -tol:
        raise AssertionError("P is not positive semidefinite")
    if np.abs(op.P @ s0).max() > tol:
        raise AssertionError("P does not annihilate s0")
    # alternating: only disjoint pairs couple, and each quadruple couples
    # (ij, kl), (ik, jl), (il, jk) with signs +, -, +
    seen = np.zeros((N, N), dtype=bool)
    for quad in itertools.combinations(range(n), 4):
        (a1, b1, _), (a2, b2, _), (a3, b3, _) = _quadruple_couplings(n, quad)
        c = op.W[a1, b1]
        if (abs(op.W[a2, b2] + c) > tol or abs(op.W[a3, b3] - c) > tol
                or abs(op.W[b1, a1] - c) > tol):
            raise AssertionError(f"four-form not alternating on {quad}")
        for a, b in ((a1, b1), (a2, b2), (a3, b3)):
            seen[a, b] = seen[b, a] = True
    if np.abs(op.W[~seen]).max(initial=0.0) > tol:
        raise AssertionError("four-form couples pairs that share an index")
    if abs(s0 @ op.mat @ s0 - op.m) > tol:
        raise AssertionError("sec(s0) differs from m")
    for _ in range(planes):
        x, y = random_plane(n, rng)
        s = plane_coords(x, y)
        if abs(s @ op.W @ s) > tol:
            raise AssertionError("four-form is visible to sec")
        if sec_of(op.mat, x, y) < op.m - tol:
            raise AssertionError("a random plane has sec below m")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    for n in (4, 5, 6, 7):
        for _ in range(3):
            selfcheck(exact_operator(n, rng), rng)
    for name, (build, (lo, hi)) in FIXTURE_EXTREMES.items():
        n = 5 if name == "RL" else 4
        M = build(n)
        for _ in range(20):
            x, y = random_plane(n, rng)
            if not lo - 1e-12 <= sec_of(M, x, y) <= hi + 1e-12:
                raise AssertionError(f"fixture {name} leaves [{lo}, {hi}]")
    print("inputs self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
