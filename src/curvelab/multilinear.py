"""Representation spaces of so(n): orthonormal bases and their products.

Three families of orthogonal representations are supported, each with an
explicit orthonormal basis:

* exterior powers of R^n, with the wedge basis ``e_{i1} ^ ... ^ e_{ip}``
  over strictly increasing index tuples in lexicographic order;
* symmetric powers of R^n, realised as homogeneous polynomials with the
  monomial basis ``u_l = x^l / sqrt(l!)`` in descending lexicographic
  order of the exponent tuple (so the degree-1 basis is
  ``x_1, ..., x_n``).  A polynomial is always its coordinate vector on
  this basis: ``c x^l`` has coordinate ``c sqrt(l!)`` (``monomial_norms``),
  and the differential-operator pairing is the dot product;
* traceless (harmonic) symmetric powers, the orthogonal complement of
  ``r^2 * Sym^{p-2}`` inside ``Sym^p``, carried by a computed orthonormal
  basis expressed in normalized-monomial coordinates.

The generator ``A[(i, j)]`` of so(n) is the matrix with ``+1`` in entry
``(i, j)`` and ``-1`` in entry ``(j, i)``, so ``A e_j = e_i`` and
``A e_i = -e_j``; the family over ``i < j`` is orthonormal.  On
polynomials it acts as ``x_i d/dx_j - x_j d/dx_i``.

``product_table`` is the one place basis vectors are multiplied (the
wedge sign, the ``x^l / sqrt(l!)`` normalization).  With ``M_i`` the
product by the i-th degree-one basis vector, adjoint to ``i_{e_i}`` on
the wedge and ``d/dx_i`` on polynomials, the so(n) action is
``D_(i,j) = M_i M_j^T - M_j M_i^T``; no space stores it.
``product_congruence`` scatters the table into the product map P and
returns ``P (A (x) B) P^T``, the graded product of ``knalgebra``.
``two_forms`` reads the degree-one wedge products as the skew matrices of
the pair basis.

See ``docs/bases.md`` for the frozen ordering and normalization rules.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# so(n) pair bookkeeping


def pair_basis(n):
    """Ordered basis labels of so(n): pairs (i, j), 1-based, i < j, lex order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def pair_index(n, i, j):
    """Position of the (unordered) pair {i, j} in the lexicographic pair basis."""
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}) with n={n}")
    return (i - 1) * n - (i - 1) * i // 2 + (j - i - 1)


@lru_cache(maxsize=32)
def two_forms(n):
    """The pair basis as skew matrices, shape (N, n, n): slice a is
    ``e_i ^ e_j`` with +1 at (i, j) and -1 at (j, i), scattered from the
    ``(n, 1, 1)`` wedge table, so ``two_forms(n) @ y @ x`` is x ^ y.
    The array is cached and read-only."""
    out, i, j, val = product_table("exterior", n, 1, 1)
    E = np.zeros((dim_exterior(n, 2), n, n))
    E[out, i, j] = val
    E.flags.writeable = False
    return E


# ---------------------------------------------------------------------------
# dimension formulas


def dim_exterior(n, p):
    return math.comb(n, p) if 0 <= p <= n else 0


def dim_symmetric(n, p):
    return math.comb(n + p - 1, p) if p >= 0 else 0


# ---------------------------------------------------------------------------
# basis enumeration


@lru_cache(maxsize=128)
def wedge_basis(n, p):
    """Strictly increasing p-tuples from {1..n}, lexicographically sorted."""
    return tuple(combinations(range(1, n + 1), p))


@lru_cache(maxsize=128)
def monomial_basis(n, p):
    """Exponent tuples of total degree p, descending lexicographic order.

    Descending order puts ``x_1^p`` first and ``x_n^p`` last, so for p = 1
    the basis coincides with ``e_1, ..., e_n``.
    """

    def gen(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(nvars - 1, total - first):
                yield (first,) + rest

    return tuple(gen(n, p))


def monomial_norms(n, p):
    """``sqrt(l!)`` for each exponent tuple l of the degree-p basis: the
    norm of x^l, so the coordinate of ``c x^l`` is ``c sqrt(l!)``."""
    return np.array([math.sqrt(math.prod(map(math.factorial, e)))
                     for e in monomial_basis(n, p)])


def _binomials(rows, cols):
    """``math.comb(a, b)`` for a < rows, b < cols as int64.  Entries above
    2**62 are clipped: a basis rank reads only binomials that count basis
    vectors of one space, and those fit."""
    return np.array([[min(math.comb(a, b), 1 << 62) for b in range(cols)]
                     for a in range(rows)], dtype=np.int64)


def _basis_rows(kind, n, p):
    """The degree-p basis as an int (dim, n) array: exponent tuples on
    "symmetric", 0/1 membership of the index set on "exterior"."""
    if kind == "symmetric":
        basis = monomial_basis(n, p)
        return np.array(basis, dtype=np.int64).reshape(len(basis), n)
    basis = wedge_basis(n, p)
    index = np.array(basis, dtype=np.intp).reshape(len(basis), p)
    rows = np.zeros((len(basis), n), dtype=np.int64)
    np.put_along_axis(rows, index - 1, 1, axis=1)
    return rows


def _basis_rank(kind, n, p, rows, binom):
    """Position of each row (as ``_basis_rows`` writes it) in the degree-p
    basis, with ``binom`` from ``_binomials``.

    Sym (descending lex): sum_{t < n-1} binom(s_t + n - t - 2, n - t - 1)
    exponent tuples come before l, s_t = sum_{u > t} l_u.  Wedge (lex):
    sum_t binom(n - c_t, p - t + 1) index sets come after
    ``{c_1 < ... < c_p}``.
    """
    if kind == "symmetric":
        s = p - np.cumsum(rows, axis=1)[:, :-1]
        m = np.arange(n - 1, 0, -1)
        return binom[s + m - 1, m].sum(axis=1)
    after = rows * binom[np.arange(n - 1, -1, -1), p + 1 - np.cumsum(rows, 1)]
    return math.comb(n, p) - 1 - after.sum(axis=1)


@lru_cache(maxsize=64)
def product_table(kind, n, pa, pb):
    """Products of the degree-pa and degree-pb basis vectors, as a COO table.

    Returns arrays ``(out, ia, ib, val)``: basis vector ``ia`` of degree pa
    times basis vector ``ib`` of degree pb is ``val`` times basis vector
    ``out`` of degree pa + pb, with entries ordered by ia, then ib.  On
    "exterior" ``e_I ^ e_J = (-1)^inv e_{I u J}``, inv the number of pairs
    i in I, j in J with i > j, and products with a repeated index are left
    out.  On "symmetric" (basis ``u_l = x^l / sqrt(l!)``) every product is
    present: ``u_a u_b = sqrt(prod_k binom(a_k + b_k, a_k)) u_{a+b}``.
    """
    if kind not in ("exterior", "symmetric"):
        raise KeyError(kind)
    A, B = _basis_rows(kind, n, pa), _basis_rows(kind, n, pb)
    binom = _binomials(n + pa + pb + 1, max(n, pa + pb) + 2)
    if kind == "symmetric":
        ia, ib = (g.ravel() for g in np.indices((len(A), len(B))))
        val = np.sqrt(binom[A[ia] + B[ib], A[ia]].prod(axis=1).astype(float))
    else:
        ia, ib = np.nonzero(A @ B.T == 0)
        # inv = sum_j B_j #{i in I : i > j}
        later = A.sum(axis=1, keepdims=True) - np.cumsum(A, axis=1)
        inv = (later[ia] * B[ib]).sum(axis=1)
        val = np.where(inv % 2 == 1, -1.0, 1.0)
    out = _basis_rank(kind, n, pa + pb, A[ia] + B[ib], binom)
    return out.astype(np.intp), ia.astype(np.intp), ib.astype(np.intp), val


def product_congruence(kind, n, pa, pb, A, B):
    """``P (A (x) B) P^T`` for the product map P of ``product_table``.

    A and B are matrices over the degree-pa and degree-pb bases; P, of
    shape (dim_a, dim_b, dim), takes ``u_a (x) u_b`` to ``u_a u_b``.  With
    A and B positive semidefinite, so is the result.  A (x) B is never
    formed: Y = B T_a with T_a = (A P)[a], and the result is P^T Y.
    """
    out, ia, ib, val = product_table(kind, n, pa, pb)
    dim = (dim_exterior if kind == "exterior" else dim_symmetric)(n, pa + pb)
    P = np.zeros((A.shape[0], B.shape[0], dim))
    P[ia, ib, out] = val
    Y = B @ np.tensordot(A, P, 1)
    return P.reshape(-1, dim).T @ Y.reshape(-1, dim)


# ---------------------------------------------------------------------------
# representation spaces


class RepSpace:
    """An orthogonal representation of so(n) on an explicit orthonormal basis.

    It stores no generator matrices: the so(n) action on the exterior and
    symmetric powers is read off ``product_table`` where it is needed.

    Attributes
    ----------
    kind : str
        "exterior", "symmetric", or "traceless".
    n, p : int
        Underlying dimension and power.
    dim : int
        Dimension of the representation space.
    basis : tuple
        Wedge index tuples or monomial exponent tuples.  For "traceless"
        this is the monomial basis of the ambient symmetric power.
    reflectors : (V, T) or None
        For "traceless": the k Householder reflectors of the r^2 map,
        k = dim Sym^{p-2}, in compact WY form: ``Q = I - V T V^T`` is
        orthogonal, V (ambient dim x k) unit lower trapezoidal, T (k x k)
        upper triangular.  They are all the space stores.
    change_of_basis : ndarray or None
        For "traceless": ``Q[:, k:].T``, whose rows are the orthonormal
        harmonic basis vectors in normalized-monomial coordinates of the
        ambient symmetric power; formed on first read, then kept.
    """

    def __init__(self, kind, n, p, dim, basis, reflectors=None):
        self.kind = kind
        self.n = n
        self.p = p
        self.dim = dim
        self.basis = basis
        self.reflectors = reflectors

    @cached_property
    def change_of_basis(self):
        # C = I[k:, :] - V_2 T^T V^T, V_2 the rows k onward of V
        if self.reflectors is None:
            return None
        V, T = self.reflectors
        k = T.shape[0]
        C = (V[k:] @ -T.T) @ V.T
        C[np.arange(self.dim), np.arange(k, k + self.dim)] += 1.0
        return C

    def __repr__(self):
        return f"RepSpace({self.kind}, n={self.n}, p={self.p}, dim={self.dim})"


def _check_np(n, p):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")


@lru_cache(maxsize=32)
def build_exterior(n, p):
    """Exterior power on the lexicographic wedge basis."""
    _check_np(n, p)
    if p > n:
        raise ValueError(f"exterior power needs p <= n, got p={p}, n={n}")
    basis = wedge_basis(n, p)
    return RepSpace("exterior", n, p, len(basis), basis)


@lru_cache(maxsize=32)
def build_symmetric(n, p):
    """Symmetric power on the normalized monomial basis x^l / sqrt(l!)."""
    _check_np(n, p)
    basis = monomial_basis(n, p)
    return RepSpace("symmetric", n, p, len(basis), basis)


def r2_multiplication_matrix(n, p):
    """Multiplication by r^2 from Sym^p to Sym^{p+2}, orthonormal coordinates.

    ``sum_i M_i M_i``: ``x_i u_col = first u_mid``, and ``x_i u_mid`` is
    entry ``i dim + mid`` of the next table, which lists every product.
    Dense, and not cached, so no copy outlives its caller.
    """
    mid, i, col, first = product_table("symmetric", n, 1, p)
    out, _, _, second = product_table("symmetric", n, 1, p + 1)
    then = i * dim_symmetric(n, p + 1) + mid
    M = np.zeros((dim_symmetric(n, p + 2), dim_symmetric(n, p)))
    M[out[then], col] = first * second[then]
    return M


def _block_reflector(V, tau):
    """T of ``H_1 ... H_k = I - V T V^T``, ``H_i = I - tau_i v_i v_i^T``.

    The forward columnwise recurrence of LAPACK's ``larft``: column i is
    ``-tau_i T[:i, :i] V[:, :i]^T v_i`` above ``tau_i``.  It never divides
    by tau, which is 0 for a reflector that is the identity.
    """
    k = tau.size
    G = V.T @ V
    T = np.zeros((k, k))
    for i in range(k):
        T[:i, i] = -tau[i] * (T[:i, :i] @ G[:i, i])
        T[i, i] = tau[i]
    return T


@lru_cache(maxsize=32)
def build_traceless(n, p):
    """Harmonic part of the symmetric power, on a computed orthonormal basis.

    The basis is the orthogonal complement of the column space of the r^2
    map M (ambient dim x k, full column rank).  ``qr(M, mode="raw")`` gives
    k Householder reflectors with product ``Q = I - V T V^T`` and
    ``M = Q[:, :k] R``, so the last dim - k columns of Q span the
    complement: ``C = Q[:, k:]^T``, formed on first read of
    ``change_of_basis``.  The basis is orthonormal but not canonical.  The
    space carries no generators of its own: the ambient ones preserve it,
    so its generators are ``C D C^T``; ``weitzenbock.curvature_term``
    assembles on the ambient power and moves the result onto the basis by
    a blockwise rank-2k update with ``(V, T)``, never forming C.
    """
    _check_np(n, p)
    amb = build_symmetric(n, p)
    if p < 2:
        V, T = np.zeros((amb.dim, 0)), np.zeros((0, 0))
    else:
        h, tau = np.linalg.qr(r2_multiplication_matrix(n, p - 2), mode="raw")
        V = np.tril(h.T, -1)   # h is the transposed LAPACK geqrf storage
        np.fill_diagonal(V, 1.0)
        T = _block_reflector(V, tau)
    return RepSpace("traceless", n, p, amb.dim - T.shape[0], amb.basis,
                    reflectors=(V, T))
