"""Algebraic curvature operators on two-forms and their decomposition.

An operator is a symmetric N x N matrix, N = n(n-1)/2, expressed in the
lexicographic pair basis ``e_i ^ e_j`` (i < j) of the two-forms, with the
sign convention ``sec(X ^ Y) = R(X ^ Y, X ^ Y)`` for orthonormal X, Y.
No first-Bianchi identity is assumed: the decomposition below splits off
the fully alternating four-form part explicitly, so "modified" operators
are first-class citizens.

The four mutually orthogonal summands are

* a scalar part, the multiple of the identity fixed by the trace;
* a traceless-Ricci part, the metric product with the traceless Ricci;
* the four-form part, the projection onto alternating four-tensors;
* the Weyl-type remainder (trace-free, Ricci-free, Bianchi-symmetric).

For n = 3 the last two summands vanish identically; decomposition then
runs in a degraded two-part mode and says so in the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .multilinear import pair_basis, pair_index


def _as_matrix(mat, n):
    N = n * (n - 1) // 2
    m = np.asarray(mat, dtype=float)
    if m.shape != (N, N):
        raise ValueError(f"expected shape {(N, N)} for n={n}, got {m.shape}")
    return m


class CurvatureOperator:
    """Symmetric endomorphism of the two-forms in the pair basis.

    The input matrix is symmetrized on ingestion and the largest asymmetry
    ``max |M - M^T| / 2`` is kept in ``asymmetry`` for diagnostics.
    """

    def __init__(self, n, mat):
        if n < 3:
            raise ValueError(f"need n >= 3, got n={n}")
        self.n = int(n)
        m = _as_matrix(mat, self.n)
        self.asymmetry = float(np.max(np.abs(m - m.T)) / 2) if m.size else 0.0
        self.mat = 0.5 * (m + m.T)
        self.pairs = pair_basis(self.n)

    @property
    def N(self):
        return self.n * (self.n - 1) // 2

    def __repr__(self):
        return f"CurvatureOperator(n={self.n}, N={self.N})"

    def entry(self, i, j, k, l):
        """Component R_{ijkl} with antisymmetric extension in each pair."""
        if i == j or k == l:
            return 0.0
        s = 1.0
        if i > j:
            i, j, s = j, i, -s
        if k > l:
            k, l, s = l, k, -s
        return s * self.mat[pair_index(self.n, i, j), pair_index(self.n, k, l)]

    def __add__(self, other):
        return CurvatureOperator(self.n, self.mat + other.mat)

    def __sub__(self, other):
        return CurvatureOperator(self.n, self.mat - other.mat)

    def scale(self, a):
        return CurvatureOperator(self.n, a * self.mat)

    @classmethod
    def identity(cls, n):
        N = n * (n - 1) // 2
        return cls(n, np.eye(N))


class TwoPlane:
    """Oriented 2-plane given by an orthonormal pair (x, y).

    Vectors must be orthonormal to within 1e-12; use ``orthonormalized``
    to build a plane from a pair in general position.
    """

    TOL = 1e-12

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be vectors of equal length")
        err = max(
            abs(x @ x - 1.0), abs(y @ y - 1.0), abs(float(x @ y))
        )
        if err > self.TOL:
            raise ValueError(f"pair is not orthonormal (defect {err:.3e})")
        self.x = x
        self.y = y
        self.n = x.size

    @classmethod
    def orthonormalized(cls, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        q = np.linalg.qr(np.column_stack([x, y]))[0]
        return cls(q[:, 0], q[:, 1])

    def coords(self):
        """Coordinates of x ^ y in the pair basis."""
        n = self.n
        out = np.empty(n * (n - 1) // 2)
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                out[k] = self.x[i] * self.y[j] - self.x[j] * self.y[i]
                k += 1
        return out

    def __repr__(self):
        return f"TwoPlane(n={self.n})"


def sec(R, plane, y=None):
    """Sectional curvature of a plane: the quadratic form at x ^ y."""
    if y is not None:
        plane = TwoPlane(plane, y)
    s = plane.coords()
    return float(s @ R.mat @ s)


def ricci(R):
    """Ricci form Ric(e_p, e_q) = sum_i R_{piqi} as an n x n matrix."""
    n = R.n
    out = np.zeros((n, n))
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            tot = 0.0
            for i in range(1, n + 1):
                tot += R.entry(p, i, q, i)
            out[p - 1, q - 1] = tot
            out[q - 1, p - 1] = tot
    return out


def scalar_curvature(R):
    """Trace of the Ricci form; equals twice the trace of the matrix."""
    return 2.0 * float(np.trace(R.mat))


def metric_kulkarni(n, h, k=None):
    """Matrix on two-forms of the classical product of two symmetric forms.

    ``(h ? k)(ei^ej, ek^el) = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il``
    with the convention that makes ``g ? g`` act as twice the identity.
    If ``k`` is omitted the metric is used for the second slot.
    """
    h = np.asarray(h, dtype=float)
    k = np.eye(n) if k is None else np.asarray(k, dtype=float)
    pairs = pair_basis(n)
    N = len(pairs)
    out = np.empty((N, N))
    for a, (i, j) in enumerate(pairs):
        i -= 1
        j -= 1
        for b, (kk, ll) in enumerate(pairs):
            kk -= 1
            ll -= 1
            out[a, b] = (
                h[i, kk] * k[j, ll]
                + h[j, ll] * k[i, kk]
                - h[i, ll] * k[j, kk]
                - h[j, kk] * k[i, ll]
            )
    return 0.5 * (out + out.T)


def _four_form_entries(n, quad):
    """Pair-basis positions (a, c) and signs of the four-form on ``quad``.

    The four-form ``e_i ^ e_j ^ e_k ^ e_l`` (i < j < k < l) couples the
    two-forms ij with kl (+1), ik with jl (-1) and il with jk (+1); at
    n = 4 and quad = (1, 2, 3, 4) it is the Hodge star.
    """
    i, j, k, l = quad
    return [(pair_index(n, *p1), pair_index(n, *p2), s) for p1, p2, s in (
        ((i, j), (k, l), 1.0), ((i, k), (j, l), -1.0), ((i, l), (j, k), 1.0))]


def four_form_matrix(n):
    """The four-form e_1 ^ e_2 ^ e_3 ^ e_4 on two-forms of R^n (n >= 4),
    in the pair basis; at n = 4 the Hodge star."""
    N = n * (n - 1) // 2
    out = np.zeros((N, N))
    for a, c, s in _four_form_entries(n, (1, 2, 3, 4)):
        out[a, c] = out[c, a] = s
    return out


def four_form_projection(R):
    """Orthogonal projection onto the alternating four-form summand.

    Built from the orthonormal family indexed by i < j < k < l whose
    matrix has entries +-1/sqrt(6) on the six pair-positions of the
    quadruple; equivalently the Bianchi-defect component."""
    n = R.n
    out = np.zeros_like(R.mat)
    for (i, j, k, l) in combinations(range(1, n + 1), 4):
        b = (R.entry(i, j, k, l) - R.entry(i, k, j, l) + R.entry(i, l, j, k)) / 3.0
        for a, c, s in _four_form_entries(n, (i, j, k, l)):
            out[a, c] += s * b
            out[c, a] += s * b
    return out


@dataclass
class CurvatureDecomposition:
    """Result of the four-part orthogonal splitting of an operator."""

    n: int
    scal: float
    ric: np.ndarray
    ric0: np.ndarray
    r_u: np.ndarray
    r_l: np.ndarray
    r_w: np.ndarray
    r_w4: np.ndarray
    degraded_n3: bool = False
    reconstruction_residual: float = 0.0
    orthogonality_residual: float = 0.0

    def part(self, name):
        return {"U": self.r_u, "L": self.r_l, "W": self.r_w, "W4": self.r_w4}[name]

    def operator(self, name):
        return CurvatureOperator(self.n, self.part(name))

    def parts(self):
        return {"U": self.r_u, "L": self.r_l, "W": self.r_w, "W4": self.r_w4}


def decompose(R):
    """Split R into scalar, traceless-Ricci, Weyl-type, and four-form parts.

    The summands are mutually orthogonal in the Frobenius pairing and add
    back to R; the achieved residuals are recorded on the result.
    """
    n = R.n
    scal = scalar_curvature(R)
    ric = ricci(R)
    ric0 = ric - (scal / n) * np.eye(n)
    N = R.N
    r_u = (scal / (n * (n - 1))) * np.eye(N)
    r_l = metric_kulkarni(n, np.eye(n), ric0) / (n - 2)
    r_w4 = four_form_projection(R)
    r_w = R.mat - r_u - r_l - r_w4
    parts = [r_u, r_l, r_w, r_w4]
    ortho = 0.0
    scale = max(1.0, float(np.linalg.norm(R.mat)))
    for a in range(4):
        for b in range(a + 1, 4):
            ortho = max(ortho, abs(float(np.sum(parts[a] * parts[b]))) / scale**2)
    recon = float(np.max(np.abs(r_u + r_l + r_w + r_w4 - R.mat)))
    return CurvatureDecomposition(
        n=n,
        scal=scal,
        ric=ric,
        ric0=ric0,
        r_u=r_u,
        r_l=r_l,
        r_w=r_w,
        r_w4=r_w4,
        degraded_n3=(n == 3),
        reconstruction_residual=recon,
        orthogonality_residual=ortho,
    )
