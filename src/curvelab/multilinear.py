"""Representation spaces of so(n) and their infinitesimal generator matrices.

Three families of orthogonal representations are supported, each with an
explicit orthonormal basis; the first two carry the skew-symmetric
generator matrices ``D_a`` of the standard basis ``a = (i, j)`` of so(n):

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
  basis expressed in normalized-monomial coordinates; its generators are
  the ambient ones restricted to it and are not stored.

On the first two, the generators have pairwise disjoint supports, so all
of them are stored once, as one row-padded pattern (``RepSpace.pattern``,
built when first read: the curvature term reads product tables instead).

The generator ``A[(i, j)]`` of so(n) is the matrix with ``+1`` in entry
``(i, j)`` and ``-1`` in entry ``(j, i)``, so ``A e_j = e_i`` and
``A e_i = -e_j``; the family over ``i < j`` is orthonormal.  On
polynomials it acts as ``x_i d/dx_j - x_j d/dx_i``.

``product_table`` is the one place basis vectors are multiplied (the
wedge sign, the ``x^l / sqrt(l!)`` normalization).  With ``M_i`` the
product by the i-th degree-one basis vector, adjoint to ``i_{e_i}`` on
the wedge and ``d/dx_i`` on polynomials, ``D_(i,j) = M_i M_j^T - M_j M_i^T``.
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


def dim_traceless(n, p):
    if p < 0:
        return 0
    if p < 2:
        return dim_symmetric(n, p)
    return dim_symmetric(n, p) - dim_symmetric(n, p - 2)


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
# polynomials, as coordinates on the u_l basis of Sym^p


def circle_harmonic(n, p):
    """Sym^p coordinates of the harmonic fixture Re (x_1 + i x_2)^p.

    Its monomials are ``x_1^{p-k} x_2^k`` for even k, with coefficient
    ``binom(p, k) (-1)^{k/2}``; squared norm ``2^{p-1} p!``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    index = monomial_basis(n, p).index
    v = np.zeros(dim_symmetric(n, p))
    for k in range(0, p + 1, 2):
        c = math.comb(p, k) * (-1) ** (k // 2)
        v[index((p - k, k) + (0,) * (n - 2))] = float(c) * math.sqrt(
            math.factorial(p - k) * math.factorial(k))
    return v


# ---------------------------------------------------------------------------
# representation spaces


class RepSpace:
    """An orthogonal representation of so(n) on an explicit orthonormal basis.

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
    pairs : list of (i, j)
        so(n) basis labels; the pattern's ``pair`` indexes into this list.
    pattern : tuple or None
        The generators ``D_a``, stored once (their supports are pairwise
        disjoint).  None for "traceless": its generators are the ambient
        ones restricted by ``change_of_basis``, and are never formed.
    change_of_basis : ndarray or None
        For "traceless": rows are the orthonormal harmonic basis vectors in
        normalized-monomial coordinates of the ambient symmetric power.
    reflectors : (V, T) or None
        For "traceless": the k Householder reflectors of the r^2 map,
        k = dim Sym^{p-2}, in compact WY form: ``Q = I - V T V^T`` is
        orthogonal, V (ambient dim x k) unit lower trapezoidal, T (k x k)
        upper triangular, and ``change_of_basis = Q[:, k:].T``.
    """

    def __init__(self, kind, n, p, dim, basis, change_of_basis=None,
                 reflectors=None):
        self.kind = kind
        self.n = n
        self.p = p
        self.dim = dim
        self.basis = basis
        self.pairs = pair_basis(n)
        self.change_of_basis = change_of_basis
        self.reflectors = reflectors

    @cached_property
    def pattern(self):
        """``(cols, vals, pair)``: every generator in row-padded form, built
        when first read; None on "traceless".

        Each array has shape (dim, w).  Slot s of row m holds one entry
        ``D_a[m, i]``: ``cols[m, s] = i``, ``vals[m, s]`` its value and
        ``pair[m, s] = a``.  w is the largest number of entries in a row;
        shorter rows are padded with ``val = 0`` (and column and pair 0).
        Raises if two entries share a position.
        """
        if self.kind == "traceless":
            return None
        rows, cols, vals, pair = _generator_entries(self.kind, self.n, self.p)
        rows, cols, pair = (np.asarray(a, dtype=np.int64)
                            for a in (rows, cols, pair))
        vals = np.asarray(vals, dtype=float)
        order = np.lexsort((cols, rows))
        rows, cols, vals, pair = (a[order] for a in (rows, cols, vals, pair))
        key = rows * self.dim + cols
        if np.any(key[1:] == key[:-1]):
            raise RuntimeError(
                f"generator supports overlap on {self!r}; the shared "
                "pattern needs pairwise disjoint supports"
            )
        counts = np.bincount(rows, minlength=self.dim)
        slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        shape = (self.dim, int(counts.max(initial=0)))
        pattern = (np.zeros(shape, dtype=np.int64), np.zeros(shape),
                   np.zeros(shape, dtype=np.int64))
        for padded, entry in zip(pattern, (cols, vals, pair)):
            padded[rows, slot] = entry
        return pattern

    def __repr__(self):
        return f"RepSpace({self.kind}, n={self.n}, p={self.p}, dim={self.dim})"


def _check_np(n, p):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")


def _generator_entries(kind, n, p):
    """COO entries (rows, cols, vals, pair) of every generator on degree p.

    With ``M_i`` the product by the i-th degree-one basis vector, from
    degree p - 1, ``D_(i,j) = M_i M_j^T - M_j M_i^T``.  Column y of the
    ``(n, 1, p - 1)`` table holds ``M_i[z, y]`` for every i with a nonzero
    product (n on Sym, n - p + 1 on the wedge), so each ordered pair of its
    entries ``(i, z), (j, x)`` gives ``sign(j - i) M_i[z, y] M_j[x, y]`` at
    ``D_(i,j)[z, x]`` (``D_(j,i)`` for i > j).
    """
    if p == 0:
        return (), (), (), ()
    out, i, y, val = product_table(kind, n, 1, p - 1)
    order = np.argsort(y, kind="stable")
    width = y.size // (y.max() + 1)
    z, i, v = (a[order].reshape(-1, width, 1) for a in (out, i, val))
    x, j, w = (a.transpose(0, 2, 1) for a in (z, i, v))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    pair = lo * n - lo * (lo + 1) // 2 + hi - lo - 1   # pair_index, 0-based
    keep = i != j
    return tuple(np.broadcast_to(a, pair.shape)[keep]
                 for a in (z, x, np.sign(j - i) * v * w, pair))


@lru_cache(maxsize=32)
def build_exterior(n, p):
    """Exterior power with wedge basis and its generator pattern."""
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
    complement: ``C = Q[:, k:]^T = I[k:, :] - V_2 T^T V^T`` (V_2 the rows k
    onward of V).  The basis is orthonormal but not canonical.  The space
    carries no generators of its own: the ambient ones preserve it, so its
    generators are ``C D C^T``; ``weitzenbock.curvature_term`` assembles on
    the ambient power and moves the result onto the basis by a rank-2k
    update with ``(V, T)``, never forming C K C^T.
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
    k = T.shape[0]
    C = (V[k:] @ -T.T) @ V.T
    dim = C.shape[0]
    C[np.arange(dim), np.arange(k, amb.dim)] += 1.0
    if dim != dim_traceless(n, p):
        raise RuntimeError(
            f"harmonic basis has dim {dim}, expected {dim_traceless(n, p)}"
        )
    return RepSpace("traceless", n, p, dim, amb.basis, change_of_basis=C,
                    reflectors=(V, T))
