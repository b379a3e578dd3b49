"""Curvature terms of symmetric endomorphisms of two-forms.

Given a curvature operator R with components R_ab in the orthonormal
so(n) basis and a representation space V with skew generator matrices
D_a, the curvature term is the symmetric endomorphism

    K(R, V) = - sum_{a,b} R_ab D_a D_b.

On vectors and on (n-1)-forms it reproduces the Ricci form; on full
symmetric powers it is block-diagonal along the harmonic tower
``Sym^p = +_{m} r^{2m} Harm^{p-2m}``; on the traceless two-tensors its
diagonal in a Ricci eigenbasis recovers four times the Ricci eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multilinear as ml


@dataclass
class SymmetricEndomorphism:
    """Symmetric matrix acting on a representation space.

    ``sym_defect`` is the largest asymmetry removed when the assembled
    matrix was symmetrized: on a traceless space, the ambient K(R, Sym^p)
    before it is moved onto the harmonic basis."""

    space: ml.RepSpace
    mat: np.ndarray
    sym_defect: float = 0.0

    @property
    def dim(self):
        return self.space.dim

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.mat)

    def lambda_min(self):
        return float(np.linalg.eigvalsh(self.mat)[0])

    def __repr__(self):
        return (
            f"SymmetricEndomorphism({self.space.kind}, n={self.space.n}, "
            f"p={self.space.p}, dim={self.dim})"
        )


# Products per gather/scatter in ``_assemble`` (rows of K times w^2): its
# transients, a few arrays of this many 8-byte entries, stay at a few MB
# whatever the space.
_CHUNK_PRODUCTS = 1 << 16


def _assemble(Rmat, space):
    """Dense matrix of -sum_ab R_ab D_a D_b from the shared pattern.

    The generators are skew, so the sum is ``sum_m A_m^T R A_m`` with
    ``A_m[a, i] = D_a[m, i]``, row m of every generator.  Supports are
    disjoint, so A_m has at most one entry per column i, owned by one
    generator ``a = pair_mi``, and

        K[i, j] = sum_m v_mi v_mj R[pair_mi, pair_mj].

    Skewness also gives the m with ``v_mi != 0``: they are the columns of
    pattern row i, with ``v_mi = -D[i, m]``.  So a chunk of rows of K is
    one gather (pattern rows i, the rows m they list, and R) and one
    scatter into those rows of K alone.
    """
    cols, vals, pair = space.pattern
    dim, N = space.dim, Rmat.shape[0]
    R = Rmat.ravel()
    K = np.empty((dim, dim))
    step = max(1, _CHUNK_PRODUCTS // max(1, cols.shape[1]) ** 2)
    for lo in range(0, dim, step):
        m, v, p = (a[lo:lo + step] for a in (cols, vals, pair))
        rows = m.shape[0]
        W = -v[:, :, None] * vals[m] * R[p[:, :, None] * N + pair[m]]
        at = np.arange(rows)[:, None, None] * dim + cols[m]
        K[lo:lo + rows] = np.bincount(at.ravel(), W.ravel(),
                                      rows * dim).reshape(rows, dim)
    return K


def curvature_term(R, space):
    """Assemble K(R, V) on a representation space as a symmetric matrix.

    For traceless spaces the sum is assembled on the ambient symmetric
    power (where the generators are stored) and moved onto the harmonic
    basis, which the generators preserve.  With ``Q = I - V T V^T`` from
    ``space.reflectors``, ``Q^T K Q = K - (Y V^T + V Y^T)`` for ``W = K V``
    and ``Y = W T - V (T^T V^T W T) / 2``; its rows and columns k onward
    are ``K_22 - (X + X^T)`` with ``X = V_2 Y_2^T``, exactly symmetric
    whenever K is.  ``sym_defect`` is measured on the assembled K, which
    is symmetrized only when the defect is nonzero.
    """
    if R.n != space.n:
        raise ValueError(f"operator has n={R.n}, space has n={space.n}")
    traceless = space.kind == "traceless"
    K = _assemble(R.mat, ml.build_symmetric(space.n, space.p) if traceless
                  else space)
    D = K - K.T
    defect = float(np.max(np.abs(D, out=D), initial=0.0)) / 2
    if defect:
        K = 0.5 * (K + K.T)
    if traceless:
        V, T = space.reflectors
        k = T.shape[0]
        W = K @ V
        Y = W @ T - 0.5 * V @ (T.T @ (V.T @ W) @ T)
        X = V[k:] @ Y[k:].T
        K = K[k:, k:] - (X + X.T)
    return SymmetricEndomorphism(space, K, defect)


def quadratic_form(K, vec):
    """<K v, v> for a coordinate vector on K's space."""
    v = np.asarray(vec, dtype=float)
    return float(v @ K.mat @ v)


def bilinear_form(K, v, w):
    """<K v, w> for coordinate vectors on K's space."""
    return float(np.asarray(v, float) @ K.mat @ np.asarray(w, float))


# ---------------------------------------------------------------------------
# harmonic tower


@dataclass
class BlockStructure:
    """Conjugation of K(R, Sym^p) into the harmonic tower basis."""

    n: int
    p: int
    degrees: list          # harmonic degrees, descending from p by 2
    block_dims: list
    transform: np.ndarray  # orthogonal: columns ordered by tower block
    tower_matrix: np.ndarray
    offdiag_max: float
    spectra: dict          # degree -> eigenvalues of the tower block
    spectrum_mismatch: float


def _tower_transform(n, p):
    """Orthonormal basis of Sym^p grouped by harmonic degree.

    Block k consists of an orthonormalized basis of r^{2m} Harm^k with
    m = (p - k)/2, lifted through the r^2 multiplication maps.
    """
    blocks = []
    degrees = []
    k = p
    while k >= 0:
        cols = ml.build_traceless(n, k).change_of_basis.T
        j = k
        while j < p:
            cols = ml.r2_multiplication_matrix(n, j) @ cols
            j += 2
        q = np.linalg.qr(cols)[0]
        blocks.append(q)
        degrees.append(k)
        k -= 2
    return degrees, blocks


def block_structure(R, K, offdiag_tol=1e-9, spectrum_tol=1e-8):
    """Conjugate K = K(R, Sym^p) into the harmonic tower and verify the blocks.

    ``K`` is the caller's ``curvature_term(R, build_symmetric(n, p))``, so
    the ambient power is assembled once.  Each diagonal block's spectrum
    is compared with its reference: for the top block, Harm^p itself, the
    spectrum of ``C K C^T`` (``C`` its ``change_of_basis``); for every
    lower degree k, the directly assembled K(R, Harm^k).  Raises if any
    off-diagonal block exceeds ``offdiag_tol`` or a block's spectrum
    differs from its reference by more than ``spectrum_tol`` (both
    relative to ``max(1, max|K|)``).
    """
    n, p = K.space.n, K.space.p
    if K.space.kind != "symmetric" or R.n != n:
        raise ValueError(
            f"block_structure needs K(R, Sym^p) with n={R.n}, got {K!r}"
        )
    K = K.mat
    degrees, blocks = _tower_transform(n, p)
    T = np.hstack(blocks)
    KT = T.T @ K @ T
    dims = [b.shape[1] for b in blocks]
    offs = np.cumsum([0] + dims)
    off_max = 0.0
    spectra = {}
    mismatch = 0.0
    for a, ka in enumerate(degrees):
        sl_a = slice(offs[a], offs[a + 1])
        for b in range(a + 1, len(degrees)):
            sl_b = slice(offs[b], offs[b + 1])
            off_max = max(off_max, float(np.max(np.abs(KT[sl_a, sl_b]))))
        block_eigs = np.linalg.eigvalsh(KT[sl_a, sl_a])
        spectra[ka] = block_eigs
        if ka == p:
            C = ml.build_traceless(n, p).change_of_basis
            direct = np.linalg.eigvalsh(C @ K @ C.T)
        else:
            direct = curvature_term(R, ml.build_traceless(n, ka)).eigenvalues()
        if direct.size:
            mismatch = max(mismatch, float(np.max(np.abs(block_eigs - direct))))
    scale = max(1.0, float(np.max(np.abs(K))))
    if off_max > offdiag_tol * scale:
        raise RuntimeError(
            f"harmonic tower off-diagonal block too large: {off_max:.3e}"
        )
    if mismatch > spectrum_tol * scale:
        raise RuntimeError(
            f"tower block spectrum mismatch vs direct assembly: {mismatch:.3e}"
        )
    return BlockStructure(
        n=n,
        p=p,
        degrees=degrees,
        block_dims=dims,
        transform=T,
        tower_matrix=KT,
        offdiag_max=off_max,
        spectra=spectra,
        spectrum_mismatch=mismatch,
    )
