"""Output checks made apart from curvelab.

Each check either returns normally (the operation passed), returns
``False`` (the operation failed soundly: no wrong claim, but not the
expected answer), or raises ``Incorrect`` (a wrong claim).  The answers
come from the construction in ``inputs`` or from identities the method
must satisfy, never from earlier output of the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import pair_dim, sec_of


class Incorrect(Exception):
    """An output that contradicts a known answer or a required identity."""


def require(ok, message):
    if not ok:
        raise Incorrect(message)


def _tol(mat):
    return 1e-9 * max(1.0, float(np.abs(mat).max()))


# ---------------------------------------------------------------------------
# certification


class Query:
    """``sec >= k`` (direction "ge") or ``sec <= k`` ("le") on ``mat``.

    ``extreme`` is the known minimum (ge) or maximum (le) sectional
    curvature.
    """

    def __init__(self, n, mat, k, direction, extreme, label):
        self.n = n
        self.mat = mat
        self.k = float(k)
        self.direction = direction
        self.extreme = float(extreme)
        self.label = label

    @property
    def holds(self):
        """Whether the queried bound is true."""
        if self.direction == "ge":
            return self.k <= self.extreme
        return self.k >= self.extreme


def check_certificate(doc, q):
    """Check a certificate document (``Certificate.to_dict()`` or CLI JSON).

    Passes on ``certified`` for a true bound and on ``refuted`` for a
    false one; ``inconclusive_for_certification`` is sound but fails.
    """
    verdict = doc.get("verdict")
    require(verdict in ("certified", "refuted",
                         "inconclusive_for_certification"),
             f"{q.label}: unknown verdict {verdict!r}")
    require(doc.get("direction") == q.direction and doc.get("n") == q.n,
             f"{q.label}: certificate describes another query")
    tol = _tol(q.mat)
    if verdict == "certified":
        require(q.holds, f"{q.label}: certified a false bound")
    if verdict == "refuted":
        require(not q.holds, f"{q.label}: refuted a true bound")
        plane = doc.get("witness", {}).get("plane")
        require(plane is not None, f"{q.label}: refutation without a plane")
        x = np.asarray(plane["x"], dtype=float)
        y = np.asarray(plane["y"], dtype=float)
        require(x.shape == y.shape == (q.n,), f"{q.label}: plane shape")
        defect = max(abs(x @ x - 1.0), abs(y @ y - 1.0), abs(x @ y))
        require(defect <= 1e-10, f"{q.label}: witness not orthonormal")
        s = sec_of(q.mat, x, y)
        require(abs(s - plane["sec"]) <= tol,
                 f"{q.label}: reported witness sec {plane['sec']} != {s}")
        if q.direction == "ge":
            require(q.extreme - tol <= s < q.k,
                     f"{q.label}: witness sec {s} not in [{q.extreme}, {q.k})")
        else:
            require(q.k < s <= q.extreme + tol,
                     f"{q.label}: witness sec {s} not in ({q.k}, {q.extreme}]")
    return verdict == ("certified" if q.holds else "refuted")


# ---------------------------------------------------------------------------
# curvature terms


def dim_harmonic(n, p):
    if p < 0:
        return 0
    return math.comb(n + p - 1, p) - (math.comb(n + p - 3, p - 2) if p >= 2
                                      else 0)


def casimir_pieces(kind, n, p):
    """(dimension, Casimir) of each irreducible piece of the space.

    Harm^q carries q(q + n - 2), wedge^p carries p(n - p); Sym^p splits
    along the harmonic tower r^2j Harm^(p - 2j).
    """
    if kind == "exterior":
        return [(math.comb(n, p), p * (n - p))]
    if kind == "traceless":
        return [(dim_harmonic(n, p), p * (p + n - 2))]
    return [(dim_harmonic(n, q), q * (q + n - 2)) for q in range(p, -1, -2)]


def check_kterm(K, spectrum, kind, n, p, Rmat, is_identity, label,
                sym_defect=None):
    """K(R, V) on a space of the given kind, with its spectrum.

    ``sym_defect`` is the asymmetry the program removed from the assembled
    K (known in process only).  The returned K is symmetrized by
    construction, so its own symmetry is a shape check that cannot fail.
    """
    K = np.asarray(K, dtype=float)
    pieces = casimir_pieces(kind, n, p)
    dim = sum(d for d, _ in pieces)
    require(K.shape == (dim, dim), f"{label}: K has shape {K.shape}")
    scale = max(1.0, float(np.abs(K).max()))
    require(np.abs(K - K.T).max() <= 1e-12 * scale, f"{label}: K asymmetric")
    if sym_defect is not None:
        require(sym_defect <= 1e-12 * scale,
                 f"{label}: assembled K was asymmetric by {sym_defect}")
    expect = np.trace(Rmat) * sum(d * c for d, c in pieces) / pair_dim(n)
    require(abs(np.trace(K) - expect) <= 1e-10 * scale * dim,
             f"{label}: tr K = {np.trace(K)}, expected {expect}")
    spectrum = np.sort(np.asarray(spectrum, dtype=float))
    require(spectrum.shape == (dim,), f"{label}: spectrum length")
    require(abs(spectrum.sum() - np.trace(K)) <= 1e-9 * scale * dim,
             f"{label}: spectrum does not sum to tr K")
    if is_identity:
        casimirs = np.sort(np.concatenate([np.full(d, float(c))
                                           for d, c in pieces]))
        require(np.abs(spectrum - casimirs).max() <= 1e-9 * scale,
                 f"{label}: identity spectrum differs from the Casimirs")


# ---------------------------------------------------------------------------
# CLI documents


def _reject_constant(name):
    raise Incorrect(f"non-finite number {name} in JSON output")


def strict_json(data, label):
    """Parse CLI output as strict JSON: NaN and Infinity are rejected."""
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        raise Incorrect(f"{label}: output is not JSON ({exc})") from None


def check_exit(rc, expected, label):
    require(rc == expected, f"{label}: exit code {rc}, expected {expected}")


def check_decompose(doc, Rmat, label):
    """scal = 2 tr R, and the four parts add back to R."""
    tol = _tol(Rmat)
    require(abs(doc["scal"] - 2.0 * np.trace(Rmat)) <= tol,
             f"{label}: scal {doc['scal']} != 2 tr R")
    total = sum(np.asarray(doc["parts"][name]["matrix"], dtype=float)
                for name in ("U", "L", "W", "W4"))
    require(np.abs(total - Rmat).max() <= tol,
             f"{label}: parts do not add back to R")


def check_verify(doc, label):
    require(doc.get("passed") is True, f"{label}: suite did not pass")

