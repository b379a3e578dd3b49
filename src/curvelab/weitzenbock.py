"""Curvature terms of symmetric endomorphisms of two-forms.

Given a curvature operator R with components R_ab in the orthonormal
so(n) basis and a representation space V with skew generator matrices
D_a, the curvature term is the symmetric endomorphism

    K(R, V) = - sum_{a,b} R_ab D_a D_b.

It is assembled in degree two, the paper's symmetric Kulkarni-Nomizu
form: ``K = P_1 (Ric (x) I) P_1^T + P_2 (G (x) I) P_2^T``, with P_q the
product maps of ``multilinear.product_table``; no D_a is formed.

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

    ``sym_defect`` is always 0.0: ``_assemble`` is exactly symmetric by
    construction and ``_tower_blocks`` keeps exact symmetry, so nothing
    is measured or removed.  The field stays because the benchmark's
    ``perfbench/workloads.py`` still passes it to ``checks.check_kterm``."""

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


def _assemble(Rmat, space):
    """Dense -sum_ab R_ab D_a D_b on ^p or Sym^p, in degree two.

    ``A_1 = Ric``, ``A_2 = G``, ``G_ab = -sum c_ik c_jl R_ijkl`` over the
    products ``e_i e_k = c_ik u_a``, ``e_j e_l = c_jl u_b`` (docs/bases.md
    section 5).  The entries of P_q, one row per degree p - q factor, pair
    within their row; one ``np.bincount`` sums the pairs' weights
    ``(v_e v_f) A[a_e, a_f]``.  Bins (x, y) and (y, x) receive the same
    products in the same row order, so K is exactly symmetric.  so(n) acts
    trivially in degree 0 and on ^n, where the terms cancel only to
    rounding: K = 0 there.
    """
    kind, n, p, dim = space.kind, space.n, space.p, space.dim
    if p == 0 or (kind == "exterior" and p == n):
        return np.zeros((1, 1))
    dims = ml.dim_exterior if kind == "exterior" else ml.dim_symmetric
    E = ml.two_forms(n).reshape(-1, n * n)
    # H[(i, k), (j, l)] = R_ijkl
    H = (E.T @ Rmat @ E).reshape((n,) * 4).swapaxes(1, 2).reshape(n * n, -1)
    out, i, k, c = ml.product_table(kind, n, 1, 1)
    C = np.zeros((dims(n, 2), n * n))
    C[out, i * n + k] = c
    ric, G = H[:, ::n + 1].sum(axis=1).reshape(n, n), -(C @ H @ C.T)
    groups = []
    for q, A in zip((1, 2), (ric, G)[:p]):
        out, _, a, v = ml.product_table(kind, n, p - q, q)
        w = out.size // dims(n, p - q)
        groups.append((0.5 * (A + A.T),) + tuple(x.reshape(-1, w, 1)
                                                 for x in (out, a, v)))
    at = np.empty(sum(o.size * o.shape[1] for _, o, _, _ in groups),
                  dtype=np.intp)
    wt = np.empty(at.size)
    lo = 0
    for A, o, a, v in groups:
        w = o.shape[1]
        hi = lo + o.size * w
        np.add(o * dim, o.swapaxes(1, 2), out=at[lo:hi].reshape(-1, w, w))
        W = np.multiply(v, v.swapaxes(1, 2), out=wt[lo:hi].reshape(-1, w, w))
        W *= A[a, a.swapaxes(1, 2)]
        lo = hi
    return np.bincount(at, wt, dim * dim).reshape(dim, dim)


def _tower_blocks(K, reflectors):
    """The blocks of Q^T K Q for symmetric K and Q = I - V T V^T, split at k.

    ``Q^T K Q = K - (Y V^T + V Y^T)`` with ``W = K V`` and
    ``Y = W T - V (T^T V^T W T) / 2``.  Returns its leading k x k,
    off-diagonal and trailing blocks, each diagonal block formed alone as
    ``K_ii - (Z + Z^T)``, ``Z = Y_i V_i^T``: exactly symmetric whenever K
    is.  With the reflectors of ``build_traceless(n, p)`` and
    K = K(R, Sym^p) the off-diagonal block vanishes, since K commutes with
    the r^2 map: the trailing block is K(R, Harm^p), and the leading block
    is similar to K(R, Sym^{p-2}).
    """
    V, T = reflectors
    k = T.shape[0]
    W = K @ V
    Y = W @ T - 0.5 * V @ (T.T @ (V.T @ W) @ T)

    def diagonal(s):
        Z = Y[s] @ V[s].T
        # Z += Z^T one row stripe at a time, with no transposed copy of Z
        for i in range(0, Z.shape[0], 64):
            S = Z[i:i + 64, i:] + Z[i:, i:i + 64].T
            Z[i:i + 64, i:] = S
            Z[i:, i:i + 64] = S.T
        return np.subtract(K[s, s], Z, out=Z)

    off = K[:k, k:] - (Y[:k] @ V[k:].T + V[:k] @ Y[k:].T)
    return diagonal(slice(k)), off, diagonal(slice(k, None))


def curvature_term(R, space):
    """Assemble K(R, V) on a representation space as a symmetric matrix.

    For traceless spaces the sum is assembled on the ambient symmetric
    power and moved onto the harmonic basis, which the generators
    preserve: K(R, Harm^p) is the trailing block of ``_tower_blocks``
    with ``space.reflectors``, never C K C^T nor all of Q^T K Q.  K comes
    out exactly symmetric.
    """
    if R.n != space.n:
        raise ValueError(f"operator has n={R.n}, space has n={space.n}")
    traceless = space.kind == "traceless"
    K = _assemble(R.mat, ml.build_symmetric(space.n, space.p) if traceless
                  else space)
    if traceless:
        K = _tower_blocks(K, space.reflectors)[2]
    return SymmetricEndomorphism(space, K)


# ---------------------------------------------------------------------------
# harmonic tower


# block_structure's bounds, relative to max(1, max|K(R, Sym^p)|)
_OFFDIAG_TOL = 1e-9
_SPECTRUM_TOL = 1e-8


@dataclass
class BlockStructure:
    """K(R, Sym^p) checked block diagonal along ``+_m r^{2m} Harm^{p-2m}``.

    ``degrees`` runs p, p - 2, ..., down to 1 or 0; ``block_dims[i]`` and
    ``spectra[d]`` are the dimension of Harm^d and the ascending
    eigenvalues of K(R, Harm^d), one per degree; ``spectrum`` is their
    sorted union, the eigenvalues of K(R, Sym^p).  ``offdiag_max`` is the
    largest entry of any off-diagonal block of the splits.
    """

    n: int
    p: int
    degrees: list
    block_dims: list
    offdiag_max: float
    spectra: dict
    spectrum: np.ndarray


def block_structure(R, K):
    """Split K = K(R, Sym^p) along the harmonic tower and verify the blocks.

    ``K`` is the caller's ``curvature_term(R, build_symmetric(n, p))``, so
    the ambient power is assembled once.  The walk visits every degree
    d = p, p - 2, ... down to 1 or 0 (lowest first): at d = p it splits K
    itself, below p a directly assembled K(R, Sym^d), each into the
    ``_tower_blocks`` of ``build_traceless(n, d)``'s reflectors.  The
    trailing block is K(R, Harm^d), solved as a ``SymmetricEndomorphism``
    on that space for degree d's spectrum, and the leading block,
    similar to K(R, Sym^{d-2}), must have the union of the lower degrees'
    spectra.  Raises ``RuntimeError`` if an off-diagonal block exceeds
    ``_OFFDIAG_TOL`` or a leading block's spectrum misses that union by
    more than ``_SPECTRUM_TOL`` (both relative to ``max(1, max|K|)``).
    """
    n, p = K.space.n, K.space.p
    if K.space.kind != "symmetric" or R.n != n:
        raise ValueError(
            f"block_structure needs K(R, Sym^p) with n={R.n}, got {K!r}"
        )
    scale = max(1.0, float(np.max(np.abs(K.mat))))
    spectra, union = {}, np.zeros(0)
    off_max = mismatch = 0.0
    for d in range(p % 2, p + 1, 2):
        Kd = (K if d == p
              else curvature_term(R, ml.build_symmetric(n, d))).mat
        harm = ml.build_traceless(n, d)
        lead, off, trail = _tower_blocks(Kd, harm.reflectors)
        off_max = max(off_max, float(np.max(np.abs(off), initial=0.0)))
        gap = np.abs(np.linalg.eigvalsh(lead) - union)
        mismatch = max(mismatch, float(np.max(gap, initial=0.0)))
        spectra[d] = SymmetricEndomorphism(harm, trail).eigenvalues()
        union = np.sort(np.concatenate([union, spectra[d]]))
    degrees = sorted(spectra, reverse=True)
    if off_max > _OFFDIAG_TOL * scale:
        raise RuntimeError(
            f"harmonic tower off-diagonal block too large: {off_max:.3e}"
        )
    if mismatch > _SPECTRUM_TOL * scale:
        raise RuntimeError(
            f"tower block spectrum mismatch vs lower degrees: {mismatch:.3e}"
        )
    return BlockStructure(n=n, p=p, degrees=degrees,
                          block_dims=[spectra[d].size for d in degrees],
                          offdiag_max=off_max, spectra=spectra, spectrum=union)
