"""Shared helpers for the test-suite."""

import numpy as np
import pytest

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
