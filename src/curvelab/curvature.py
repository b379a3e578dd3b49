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

The wedge sign is not written here: the code below contracts with
``multilinear.two_forms`` or reads ``multilinear.product_table``, directly
or through ``multilinear.product_congruence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multilinear import (pair_index, product_congruence, product_table,
                          two_forms)


class CurvatureOperator:
    """Symmetric endomorphism of the two-forms in the pair basis.

    The input matrix is copied and, when it is not bitwise symmetric,
    symmetrized as ``(M + M^T) / 2``; the largest asymmetry
    ``max |M - M^T| / 2`` is kept in ``asymmetry`` for diagnostics.  An
    entry that is not finite, or a difference or sum of entries that
    overflows, raises ``ValueError``.
    """

    def __init__(self, n, mat):
        if n < 3:
            raise ValueError(f"need n >= 3, got n={n}")
        self.n = int(n)
        N = self.N
        m = np.array(mat, dtype=float)
        if m.shape != (N, N):
            raise ValueError(f"expected shape {(N, N)} for n={n}, "
                             f"got {m.shape}")
        if m.tobytes() == m.T.tobytes():
            # (M + M^T) / 2 is M, signed zeros included, and M - M^T is 0
            self.asymmetry, self.mat = 0.0, m
        else:
            # inf - inf and an overflow read as not finite, checked below
            with np.errstate(invalid="ignore", over="ignore"):
                self.asymmetry = float(np.abs(m - m.T).max()) / 2
                self.mat = 0.5 * (m + m.T)
        # a zero byte of the isfinite mask is an entry that is not finite;
        # the mask's bytes are searched in C, where ndarray.all's Python
        # wrapper costs more than the test
        if not (math.isfinite(self.asymmetry)
                and b"\0" not in np.isfinite(self.mat).tobytes()):
            raise ValueError("operator entries must be finite")

    @classmethod
    def _from_symmetric(cls, n, mat):
        """The operator of a symmetric float matrix of shape (N, N), such as
        one computed from another operator's: nothing is checked, copied
        or symmetrized again."""
        R = cls.__new__(cls)
        R.n, R.mat, R.asymmetry = n, mat, 0.0
        return R

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

    @classmethod
    def identity(cls, n):
        N = n * (n - 1) // 2
        return cls(n, np.eye(N))


def random_operator(n, rng):
    """Symmetric matrix with entries uniform in [-1, 1] on the pair basis."""
    N = n * (n - 1) // 2
    A = rng.uniform(-1.0, 1.0, (N, N))
    return CurvatureOperator(n, 0.5 * (A + A.T))


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
        return two_forms(self.n) @ self.y @ self.x

    def __repr__(self):
        return f"TwoPlane(n={self.n})"


def sec(R, plane):
    """Sectional curvature of a plane: the quadratic form at x ^ y."""
    s = plane.coords()
    return float(s @ R.mat @ s)


def ricci(R):
    """Ricci form Ric(e_p, e_q) = sum_i R(e_p ^ e_i, e_q ^ e_i) as an n x n
    matrix: column p of ``two_forms(n)[:, :, i]`` is e_p ^ e_i.  Each term
    is an exact signed gather of R, so the sum is exactly symmetric."""
    return sum(M.T @ R.mat @ M for M in two_forms(R.n).transpose(2, 0, 1))


def scalar_curvature(R):
    """Trace of the Ricci form; equals twice the trace of the matrix."""
    return 2.0 * float(np.trace(R.mat))


def metric_kulkarni(n, h, k=None):
    """Matrix on two-forms of the classical product of two symmetric forms.

    ``(h ? k)(ei^ej, ek^el) = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il``
    with the convention that makes ``g ? g`` act as twice the identity: the
    grade-(1, 1) case of the wedge product ``P (h (x) k) P^T``
    (``product_congruence``).  If ``k`` is omitted the metric is used for
    the second slot.
    """
    h = np.asarray(h, dtype=float)
    k = np.eye(n) if k is None else np.asarray(k, dtype=float)
    return product_congruence("exterior", n, 1, 1, h, k)


@lru_cache(maxsize=16)
def four_form_matrix(n):
    """The four-form e_1 ^ e_2 ^ e_3 ^ e_4 on two-forms of R^n (n >= 4),
    in the pair basis; at n = 4 the Hodge star.  Its entries are the
    products of two-forms that land on (1, 2, 3, 4), the first four-form.
    The array is cached and read-only."""
    if n < 4:
        raise ValueError(f"a four-form needs n >= 4, got n={n}")
    N = n * (n - 1) // 2
    out, a, c, val = product_table("exterior", n, 2, 2)
    W = np.zeros((N, N))
    first = out == 0
    W[a[first], c[first]] = val[first]
    W.flags.writeable = False
    return W


def four_form_projection(R):
    """Orthogonal projection onto the alternating four-form summand.

    Four-form e_q has entry ``val`` at each product ``e_a ^ e_c = val e_q``
    (six entries +-1), so the projection is ``sum_q b_q e_q`` with
    ``b_q = <e_q, R> / 6``: R is symmetric, so the three a < c terms / 3."""
    out, a, c, val = product_table("exterior", R.n, 2, 2)
    upper = a < c
    b = np.bincount(out[upper], val[upper] * R.mat[a[upper], c[upper]]) / 3.0
    W = np.zeros_like(R.mat)
    W[a, c] += val * b[out]         # 0.0 + -0.0: a zero b_q reads as 0.0
    return W


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
    # pairings relative to max(1, |R|_F)^2, with every entry divided by
    # m = max(1, max|R_ab|) before it is squared, so none overflows
    m = max(1.0, float(np.max(np.abs(R.mat))))
    parts = [r_u / m, r_l / m, r_w / m, r_w4 / m]
    ortho = 0.0
    scale = max(1.0 / m, float(np.linalg.norm(R.mat / m)))
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
