"""Shared helpers for the test-suite."""

import math

import numpy as np
import pytest

from curvelab import multilinear as ml
from curvelab.certify import hodge_star_matrix
from curvelab.curvature import CurvatureOperator


def random_operator(n, rng, scale=1.0):
    """Random symmetric operator on two-forms, entries uniform in [-scale, scale]."""
    N = n * (n - 1) // 2
    M = rng.uniform(-scale, scale, size=(N, N))
    return CurvatureOperator(n, 0.5 * (M + M.T))


def random_rotation(n, rng):
    """Haar-ish random special orthogonal matrix."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def dense_generators(space):
    """Dense generators D_a, one per so(n) pair, rebuilt from a space's
    row-padded pattern; padding slots (value 0) are skipped."""
    cols, vals, pair = space.pattern
    rows = np.broadcast_to(np.arange(space.dim)[:, None], cols.shape)
    real = vals != 0
    gens = np.zeros((len(space.pairs), space.dim, space.dim))
    gens[pair[real], rows[real], cols[real]] = vals[real]
    return gens


def selfdual_split(alpha):
    """Split a two-form of R^4 into self-dual and anti-self-dual parts."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (6,):
        raise ValueError("expected a 6-vector in the pair basis")
    sa = hodge_star_matrix() @ alpha
    return 0.5 * (alpha + sa), 0.5 * (alpha - sa)


def substitute_linear(poly, Q):
    """Substitute x -> Q^T x in poly, i.e. the rotation action of Q in O(n)."""
    n = poly.n
    Q = np.asarray(Q)
    xs = [ml.Polynomial(n, {tuple(int(k == m) for m in range(n)): Q[k, i]
                            for k in range(n) if Q[k, i] != 0})
          for i in range(n)]
    total = ml.Polynomial(n, {})
    for exps, c in poly.coeffs.items():
        term = ml.Polynomial(n, {(0,) * n: c})
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * xs[i]
        total = total + term
    return total


def rep_matrix(space, Q):
    """Matrix of the O(n) element Q acting on a representation space: minors
    on exterior powers, substitution on (traceless) symmetric powers."""
    Q = np.asarray(Q, dtype=float)
    if space.kind == "exterior":
        out = np.empty((space.dim, space.dim))
        for col, I in enumerate(space.basis):
            ci = [i - 1 for i in I]
            for row, J in enumerate(space.basis):
                rj = [j - 1 for j in J]
                out[row, col] = np.linalg.det(Q[np.ix_(rj, ci)]) if I else 1.0
        return out
    amb = ml.build_symmetric(space.n, space.p)
    cols = []
    for exps in amb.basis:
        img = substitute_linear(ml.Polynomial(space.n, {exps: 1}), Q)
        v = ml.polynomial_coords(amb, img)
        norm = math.sqrt(math.prod(math.factorial(e) for e in exps))
        cols.append(v / norm)
    rho = np.column_stack(cols)
    if space.kind == "symmetric":
        return rho
    C = space.change_of_basis
    return C @ rho @ C.T


@pytest.fixture
def rng():
    return np.random.default_rng(0xC04A7)


# ---------------------------------------------------------------------------
# acceptance checklist: one line per headline criterion, echoed after the run

ACCEPTANCE_LINES = []


def acceptance_line(label, ok, detail):
    """Record and print a single checklist line; returns ``ok`` for assert."""
    line = f"{'PASS' if ok else 'FAIL'}  {label}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
