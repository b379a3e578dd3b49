"""Shared helpers for the test-suite."""

import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from curvelab import knalgebra as kn
from curvelab import multilinear as ml
from curvelab import weitzenbock as wz
from curvelab.curvature import (CurvatureOperator, TwoPlane,
                                four_form_matrix, four_form_projection, ricci)


def random_operator(n, rng, scale=1.0):
    """Random symmetric operator on two-forms, entries uniform in [-scale, scale]."""
    N = n * (n - 1) // 2
    M = rng.uniform(-scale, scale, size=(N, N))
    return CurvatureOperator(n, 0.5 * (M + M.T))


def exact_answer_operator(n, rng):
    """R = m Id + P + omega with min sec = m, m drawn from [-1, 1].

    P is positive semidefinite and annihilates the coordinates s0 of a
    random plane, and omega is a four-form, on which sec vanishes; so
    ``sec = m + <P s, s> >= m``, with equality on that plane.  Returns
    (R, m).
    """
    N = n * (n - 1) // 2
    m = rng.uniform(-1.0, 1.0)
    s0 = TwoPlane.orthonormalized(*rng.standard_normal((2, n))).coords()
    proj = np.eye(N) - np.outer(s0, s0)
    G = rng.standard_normal((N, N)) / math.sqrt(N)
    P = proj @ (0.5 * np.eye(N) + G @ G.T) @ proj
    omega = four_form_projection(random_operator(n, rng))
    return CurvatureOperator(n, m * np.eye(N) + 0.5 * (P + P.T) + omega), m


def random_rotation(n, rng):
    """Haar-ish random special orthogonal matrix."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def dense_generators(space):
    """Dense generators D_a of a symmetric or exterior space, one per
    so(n) pair in lex order, from the oracles alone.

    On Sym^p column l is ``x_i d/dx_j - x_j d/dx_i`` applied to x^l
    (``Polynomial.rotation_action``), in coordinates, over the norm
    sqrt(l!) of x^l.  On ^p it is the derivation taking each factor e_j
    to e_i and e_i to -e_j, summed over the factors (``wedge_coords``).
    Reads only the space's kind, n, dim and basis; cached, read-only.
    """
    return _dense_generators(space.kind, space.n, space.dim, space.basis)


@functools.lru_cache(maxsize=64)
def _dense_generators(kind, n, dim, basis):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    # the coordinate oracles check the degree, read off the first basis tuple
    p = len(basis[0]) if kind == "exterior" else sum(basis[0])
    space = SimpleNamespace(kind=kind, n=n, p=p, dim=dim, basis=basis)
    gens = np.zeros((len(pairs), dim, dim))
    for a, (i, j) in enumerate(pairs):
        for col, e in enumerate(basis):
            if kind == "symmetric":
                image = Polynomial(n, {e: 1}).rotation_action(i, j)
                gens[a, :, col] = (polynomial_coords(space, image)
                                   / math.sqrt(_factorial_prod(e)))
            else:
                swap = {j: (1, i), i: (-1, j)}
                gens[a, :, col] = wedge_coords(space, [
                    (swap[f][0], e[:t] + (swap[f][1],) + e[t + 1:])
                    for t, f in enumerate(e) if f in swap])
    gens.flags.writeable = False
    return gens


def selfdual_split(alpha):
    """Split a two-form of R^4 into self-dual and anti-self-dual parts."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (6,):
        raise ValueError("expected a 6-vector in the pair basis")
    sa = four_form_matrix(4) @ alpha
    return 0.5 * (alpha + sa), 0.5 * (alpha - sa)


# ---------------------------------------------------------------------------
# the dict polynomial: an oracle for the coordinate vectors of curvelab


class Polynomial:
    """Homogeneous polynomial on R^n, stored as {exponent tuple: coefficient}.

    The inner product is the one that makes the monomials orthogonal with
    ``<x^l, x^l> = l!``; equivalently ``<phi, psi>`` applies phi as a
    constant-coefficient differential operator to psi.
    """

    def __init__(self, n, coeffs):
        self.n = int(n)
        clean = {}
        deg = None
        for exps, c in coeffs.items():
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for n={self.n}")
            d = sum(exps)
            if deg is None:
                deg = d
            elif d != deg:
                raise ValueError("polynomial is not homogeneous")
            clean[exps] = clean.get(exps, 0) + c
        self.coeffs = {k: v for k, v in clean.items() if v != 0}

    @property
    def degree(self):
        """Total degree; None for the zero polynomial."""
        for exps in self.coeffs:
            return sum(exps)
        return None

    def __add__(self, other):
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            out[exps] = out.get(exps, 0) + c
        return Polynomial(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, a):
        return Polynomial(self.n, {k: a * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return Polynomial(self.n, out)

    def rotation_action(self, i, j):
        """Apply the generator (i, j): ``x_i d/dx_j - x_j d/dx_i``."""
        out = {}
        for exps, c in self.coeffs.items():
            li, lj = exps[i - 1], exps[j - 1]
            if lj:
                key = list(exps)
                key[i - 1] += 1
                key[j - 1] -= 1
                key = tuple(key)
                out[key] = out.get(key, 0) + lj * c
            if li:
                key = list(exps)
                key[i - 1] -= 1
                key[j - 1] += 1
                key = tuple(key)
                out[key] = out.get(key, 0) - li * c
        return Polynomial(self.n, out)

    def pairing(self, other):
        """<phi, psi> = sum_l l! a_l b_l (0 across different degrees)."""
        tot = 0
        for exps, c in self.coeffs.items():
            d = other.coeffs.get(exps)
            if d is not None:
                tot += _factorial_prod(exps) * c * d
        return tot

    def evaluate(self, points):
        """Evaluate at an (m, n) array of points; returns shape (m,)."""
        X = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.zeros(X.shape[0])
        for exps, c in self.coeffs.items():
            term = np.full(X.shape[0], float(c))
            for i, e in enumerate(exps):
                if e:
                    term *= X[:, i] ** e
            vals += term
        return vals


def _factorial_prod(exps):
    out = 1
    for e in exps:
        out *= math.factorial(e)
    return out


def r_squared(n):
    """The squared-radius polynomial sum_i x_i^2."""
    return Polynomial(
        n, {tuple(2 * (i == k) for k in range(n)): 1 for i in range(n)}
    )


def polynomial_coords(space, poly, check=True):
    """Coordinates of a polynomial in a symmetric or traceless RepSpace;
    on "traceless", non-harmonic input raises unless ``check`` is off."""
    if space.kind not in ("symmetric", "traceless"):
        raise ValueError("polynomial_coords needs a symmetric or traceless space")
    if poly.n != space.n:
        raise ValueError("variable-count mismatch")
    if poly.coeffs and poly.degree != space.p:
        raise ValueError(f"degree {poly.degree} != space power {space.p}")
    index = {exps: k for k, exps in enumerate(space.basis)}
    v = np.zeros(len(space.basis))
    for exps, c in poly.coeffs.items():
        v[index[exps]] = float(c) * math.sqrt(_factorial_prod(exps))
    if space.kind == "symmetric":
        return v
    C = space.change_of_basis
    out = C @ v
    if check:
        resid = np.linalg.norm(v - C.T @ out)
        if resid > 1e-9 * max(1.0, np.linalg.norm(v)):
            raise ValueError(
                f"polynomial is not harmonic (residual {resid:.3e}); "
                "apply harmonic_projection first"
            )
    return out


def coords_to_polynomial(space, vec):
    """Inverse of polynomial_coords (exact for harmonic input)."""
    vec = np.asarray(vec, dtype=float)
    if space.kind == "traceless":
        vec = space.change_of_basis.T @ vec
    elif space.kind != "symmetric":
        raise ValueError("coords_to_polynomial needs a symmetric or traceless space")
    coeffs = {}
    for k, exps in enumerate(space.basis):
        if vec[k] != 0.0:
            coeffs[exps] = vec[k] / math.sqrt(_factorial_prod(exps))
    return Polynomial(space.n, coeffs)


def harmonic_projection(poly):
    """Orthogonal projection onto harmonic polynomials of the same degree,
    through the ``build_traceless`` basis C: ``C^T C`` in coordinates."""
    if poly.degree is None:
        return Polynomial(poly.n, {})
    space = ml.build_traceless(poly.n, poly.degree)
    return coords_to_polynomial(space, polynomial_coords(space, poly,
                                                         check=False))


def substitute_linear(poly, Q):
    """Substitute x -> Q^T x in poly, i.e. the rotation action of Q in O(n)."""
    n = poly.n
    Q = np.asarray(Q)
    xs = [Polynomial(n, {tuple(int(k == m) for m in range(n)): Q[k, i]
                            for k in range(n) if Q[k, i] != 0})
          for i in range(n)]
    total = Polynomial(n, {})
    for exps, c in poly.coeffs.items():
        term = Polynomial(n, {(0,) * n: c})
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
        img = substitute_linear(Polynomial(space.n, {exps: 1}), Q)
        v = polynomial_coords(amb, img)
        norm = math.sqrt(math.prod(math.factorial(e) for e in exps))
        cols.append(v / norm)
    rho = np.column_stack(cols)
    if space.kind == "symmetric":
        return rho
    C = space.change_of_basis
    return C @ rho @ C.T


def so_generator(n, i, j):
    """Dense n x n matrix of the generator with +1 at (i, j), -1 at (j, i)."""
    a = np.zeros((n, n))
    a[i - 1, j - 1] = 1.0
    a[j - 1, i - 1] = -1.0
    return a


def lambda2_matrix(n, Q):
    """Induced matrix of Q in O(n) on two-forms in the pair basis."""
    Q = np.asarray(Q, dtype=float)
    pairs = ml.pair_basis(n)
    out = np.empty((len(pairs), len(pairs)))
    for b, (i, j) in enumerate(pairs):
        for a, (k, l) in enumerate(pairs):
            out[a, b] = (Q[k - 1, i - 1] * Q[l - 1, j - 1]
                         - Q[l - 1, i - 1] * Q[k - 1, j - 1])
    return out


def laplacian(poly):
    """Laplacian of a polynomial, term by term on the monomials."""
    out = {}
    for exps, c in poly.coeffs.items():
        for i, e in enumerate(exps):
            if e >= 2:
                key = exps[:i] + (e - 2,) + exps[i + 1:]
                out[key] = out.get(key, 0) + e * (e - 1) * c
    return Polynomial(poly.n, out)


def product_table_loop(kind, n, pa, pb):
    """``multilinear.product_table`` written as a double loop over basis
    pairs: the sort-inversion wedge sign and the binomial Sym value, one
    product at a time, looked up in a dict of the degree-(pa + pb) basis."""
    basis = {"exterior": ml.wedge_basis, "symmetric": ml.monomial_basis}[kind]
    index = {e: k for k, e in enumerate(basis(n, pa + pb))}
    entries = []
    for a, ea in enumerate(basis(n, pa)):
        for b, eb in enumerate(basis(n, pb)):
            if kind == "symmetric":
                key = tuple(x + y for x, y in zip(ea, eb))
                val = math.sqrt(math.prod(math.comb(x + y, x)
                                          for x, y in zip(ea, eb)))
            elif set(ea).isdisjoint(eb):
                key = tuple(sorted(ea + eb))
                val = (-1.0) ** sum(i > j for i in ea for j in eb)
            else:
                continue
            entries.append((index[key], a, b, val))
    out, ia, ib, val = np.array(entries, dtype=float).reshape(-1, 4).T
    return out.astype(np.intp), ia.astype(np.intp), ib.astype(np.intp), val


def wedge_coords(space, terms):
    """Vector of a linear combination of wedge monomials.

    ``terms`` is an iterable of ``(coeff, indices)`` with 1-based indices;
    unsorted index tuples are normalized with the sign of the sorting
    permutation, repeated indices contribute zero.
    """
    if space.kind != "exterior":
        raise ValueError("wedge_coords needs an exterior space")
    index = {I: k for k, I in enumerate(space.basis)}
    v = np.zeros(space.dim)
    for coeff, idxs in terms:
        idxs = tuple(idxs)
        if len(set(idxs)) != len(idxs):
            continue
        perm = sorted(range(len(idxs)), key=lambda t: idxs[t])
        inv = sum(perm[a] > perm[b] for a in range(len(perm))
                  for b in range(a + 1, len(perm)))
        v[index[tuple(sorted(idxs))]] += coeff * (-1 if inv % 2 else 1)
    return v


def project_traceless(a):
    """Apply slotwise harmonic projection to a ``"sym"`` element."""
    if a.algebra != "sym":
        raise ValueError("project_traceless expects a 'sym' element")
    C = kn.space_for("sym0", a.n, a.grade).change_of_basis
    return kn.KNElement("sym0", a.n, a.grade, C @ a.mat @ C.T)


def berger_diagonal(R, tol=1e-8):
    """Evaluate K(R, Harm^2) on the Ricci eigenbasis diagonal.

    For each unit Ricci eigenvector v with eigenvalue lam, the quadratic
    form at ``(v . x)^2 - r^2/n`` equals ``4 lam``; this is asserted to
    ``tol`` (relative to the operator scale) and the table is returned as
    a list of ``(lam, v, value)``.
    """
    n = R.n
    space = ml.build_traceless(n, 2)
    K = wz.curvature_term(R, space)
    lams, vecs = np.linalg.eigh(ricci(R))
    r2n = r_squared(n).scale(1.0 / n)
    out = []
    scale = max(1.0, float(np.max(np.abs(R.mat))))
    for m in range(n):
        v = vecs[:, m]
        lin = Polynomial(
            n, {tuple(int(i == k) for k in range(n)): v[i] for i in range(n)}
        )
        coords = polynomial_coords(space, lin * lin - r2n)
        val = wz.quadratic_form(K, coords)
        if abs(val - 4.0 * lams[m]) > tol * scale:
            raise RuntimeError(
                f"diagonal value {val:.12e} != 4*{lams[m]:.12e} "
                f"(defect {abs(val - 4 * lams[m]):.3e})"
            )
        out.append((float(lams[m]), v, val))
    return out


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
