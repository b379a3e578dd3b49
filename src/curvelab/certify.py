"""Certification of sectional-curvature bounds for curvature operators.

Three engines cooperate:

* the shift engine in ``certify_bound``: sec is the quadratic form of R
  on unit decomposable two-forms, and a four-form omega vanishes on
  them, so ``lambda_min(R - k Id + omega) >= 0`` for some omega proves
  ``sec >= k``.  At n = 4 the four-forms are the multiples of the Hodge
  star and the test is exact (Thorpe): ``lambda_min(R - k Id + t star)``
  is concave in t, ``thorpe_sec_min`` maximizes it with ``concave_max``
  from supergradients and Newton steps, and a negative maximum is
  refuted by the plane read off the bottom eigenspace that its best
  probe computed.  For other n the engine takes omega = 0, which is
  sufficient only.

* the plane search (refutations for n != 4): minimization of the
  sectional curvature over the Grassmannian of 2-planes by alternating
  exact eigen-steps, batched over random restarts.  With x fixed,
  sec(x, .) is the quadratic form of the Jacobi matrix ``L_x^T R L_x``
  (``L_x y = x ^ y``), so the best y is its bottom eigenvector on
  x^perp; then x and y swap roles.  The value never increases and there
  is no step size.  ``certify_bound`` runs the minimizing search only;
  ``sec_extremes`` also runs it on -R and reports both extremal planes.

* ``hierarchy_check`` (n != 4, when no plane refutes): nonnegativity of
  the curvature terms ``K(R - k Id, Harm^p)`` for p = 1, 2, ... is
  necessary for ``sec >= k`` (p = 1 is the Ricci test).  Since
  ``K(Id, Harm^p) = p (p + n - 2) Id``, level p is
  ``lambda_min K(R, Harm^p) - k p (p + n - 2)``: the assembly and the
  eigensolve do not depend on k.  A negative row at any level refutes
  the bound, with its eigenpolynomial as witness; an all-pass is only a
  necessary-condition pass and is reported as
  ``inconclusive_for_certification``.

Every eigenvalue test uses ``tol = 1e-9 * max(|R|_2, |k|)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import DEFAULT_SEED
from . import multilinear as ml
from . import weitzenbock as wz
from .curvature import CurvatureOperator, TwoPlane, four_form_matrix, sec


# ---------------------------------------------------------------------------
# maximization of a concave function from its supergradients


# Gap, on the scale of f's values, between the best probe and an upper
# bound on the maximum at which the search for the star shift t* stops;
# the bracket width at which it stops regardless, and the probes after
# which it only bisects, so that no input takes more than about
# 40 + log2((hi - lo) / _T_TOL) of them.
_GAP_TOL = 1e-13
_T_TOL = 1e-10
_FAST_PROBES = 40


def concave_max(f, lo, hi):
    """Maximize a concave function on [lo, hi] from its supergradients.

    ``f(t)`` returns ``(value, slope, curvature)``: the slope is any
    supergradient at t, and the curvature an estimate of the second
    derivative, used only when it is negative.  The ends are probed
    first.  A probe with positive slope moves the bracket's left end to
    it, a negative slope the right end, and a zero slope ends the search.
    The tangents at the bracket ends cross at a point whose height bounds
    the maximum from above, and the search stops once that height is
    within ``_GAP_TOL`` of the best probe (values of order one, as
    ``thorpe_sec_min`` scales them).  Otherwise the next probe is the
    first of these that lies in the bracket: the Newton point of the last
    probe, the crossing of the tangents, the midpoint.  It is kept
    ``_T_TOL / 2`` away from the ends, and a bracket ``_T_TOL`` wide ends
    the search too.  Concavity is checked along the way: each value must
    lie on or below every earlier tangent line (up to noise), which holds
    for every concave function -- kinked or monotone included -- and
    fails for genuinely bimodal input.  Returns the best probe (t, value).
    """
    ts, values, slopes = [], [], []

    def probe(t):
        value, slope, curv = f(t)
        if ts:
            tangent = min(v + g * (t - s)
                          for s, v, g in zip(ts, values, slopes))
            slack = 1e-9 * max(1.0, abs(value), *map(abs, values))
            if value > tangent + slack:
                raise RuntimeError(
                    "concavity violation: a value rose above an earlier "
                    "tangent line"
                )
        ts.append(t)
        values.append(value)
        slopes.append(slope)
        return curv

    a, b = float(lo), float(hi)
    probe(a)
    curv = probe(b)
    if slopes[0] <= 0.0:
        return a, values[0]
    if slopes[1] >= 0.0:
        return b, values[1]
    ia, ib = 0, 1           # the probes at the bracket ends
    half = 0.5 * _T_TOL
    while b - a > _T_TOL:
        ga, gb = slopes[ia], slopes[ib]
        cross = (values[ib] - values[ia] + ga * a - gb * b) / (ga - gb)
        best = max(values[ia], values[ib])
        if values[ia] + ga * (cross - a) - best <= _GAP_TOL:
            break
        candidates = []
        if len(ts) < _FAST_PROBES:
            if curv < 0.0:
                candidates.append(ts[-1] - slopes[-1] / curv)
            candidates.append(cross)
        candidates.append(0.5 * (a + b))
        t = next(s for s in candidates if a <= s <= b)
        curv = probe(min(max(t, a + half), b - half))
        if slopes[-1] > 0.0:
            a, ia = ts[-1], len(ts) - 1
        elif slopes[-1] < 0.0:
            b, ib = ts[-1], len(ts) - 1
        else:
            break
    i = int(np.argmax(values))
    return ts[i], values[i]


# The perfbench tracer binds the search by this name; ROADMAP item 4
# removes the alias.
golden_max = concave_max


# ---------------------------------------------------------------------------
# sectional curvature extremes over the Grassmannian


@dataclass
class SecExtremes:
    min_value: float
    max_value: float
    min_plane: TwoPlane
    max_plane: TwoPlane
    restarts: int
    converged_fraction: float


# Sweeps per start before it counts as unconverged, and the decrease per
# sweep, relative to |R|_2, below which a start has stopped descending
# (a few ulps: anything smaller is rounding, not progress).
_MAX_SWEEPS = 500
_STALL = 1e-15


def _partner(Rmat, x, E):
    """Best unit partners y of the unit vectors x_b, with their values.

    ``L_x y = x ^ y`` in the pair basis, with ``L_x = x . E`` for the skew
    matrices ``E = two_forms(n)``, so sec(x, y) is the quadratic form of
    the Jacobi matrix ``L_x^T R L_x`` at y.  Restricted to an orthonormal
    basis P of x^perp, its bottom eigenvector is the y that minimizes
    sec(x, .).
    """
    L = np.tensordot(x, E, (1, 1))
    P = np.linalg.qr(x[:, :, None], mode="complete")[0][:, :, 1:]
    LP = L @ P
    w, V = np.linalg.eigh(np.swapaxes(LP, 1, 2) @ Rmat @ LP)
    return w[:, 0], (P @ V[:, :, :1])[:, :, 0]


def _descend(Rmat, x, y):
    """Minimize sec from each start (x_b, y_b) by alternating eigen-steps.

    A sweep replaces y by the best partner of x, then x by the best
    partner of y.  Each step is exact, so the value never increases and
    there is no step size.  A start stops once a sweep no longer lowers
    its value.  Returns the final values and frames and the number of
    starts that stopped within ``_MAX_SWEEPS``.
    """
    E = ml.two_forms(x.shape[1])
    stall = _STALL * _spectral_norm(Rmat)
    value = np.full(x.shape[0], np.inf)
    active = np.arange(x.shape[0])
    for _ in range(_MAX_SWEEPS):
        _, y[active] = _partner(Rmat, x[active], E)
        f, x[active] = _partner(Rmat, y[active], E)
        lowered = f < value[active] - stall
        value[active] = f
        active = active[lowered]
        if active.size == 0:
            break
    return value, x, y, x.shape[0] - active.size


def _random_frames(n, count, rng):
    g = rng.standard_normal((count, n, 2))
    q = np.linalg.qr(g)[0]
    return np.ascontiguousarray(q[:, :, 0]), np.ascontiguousarray(q[:, :, 1])


def _sec_min(R, restarts, rng):
    """Lowest sec reached by ``_descend`` from ``restarts`` random frames
    drawn from rng: (value, plane, converged starts), where value is
    ``sec`` of the returned orthonormal plane."""
    x, y = _random_frames(R.n, restarts, rng)
    f, x, y, converged = _descend(R.mat, x, y)
    b = int(np.argmin(f))
    plane = TwoPlane.orthonormalized(x[b], y[b])
    return sec(R, plane), plane, converged


def sec_extremes(R, restarts=100, seed=None):
    """Extremal sectional curvatures with extremal planes as witnesses.

    Alternating exact eigen-steps from ``restarts`` random frames: one
    run on R for the minimum, then one on -R for the maximum.  Each
    reported value is ``sec`` of the reported plane.
    """
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    min_value, min_plane, conv_min = _sec_min(R, restarts, rng)
    neg_max, max_plane, conv_max = _sec_min(
        CurvatureOperator(R.n, -R.mat), restarts, rng)
    return SecExtremes(
        min_value=min_value,
        max_value=-neg_max,
        min_plane=min_plane,
        max_plane=max_plane,
        restarts=restarts,
        converged_fraction=(conv_min + conv_max) / (2 * restarts),
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    """Outcome of a bound query ``sec >= k`` (or ``<= k``) for an operator."""

    n: int
    k: float
    direction: str            # "ge" or "le"
    verdict: str              # certified / refuted / inconclusive_for_certification
    method: str               # thorpe_exact / psd_shift / grassmann_opt / hierarchy
    strict: bool
    witness: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    @property
    def certified(self):
        return self.verdict == "certified"

    @property
    def refuted(self):
        return self.verdict == "refuted"

    def to_dict(self):
        return asdict(self)


def _spectral_norm(M):
    """|M|_2 of a symmetric matrix: its eigenvalue of largest modulus."""
    lam = np.linalg.eigvalsh(M)
    return float(max(-lam[0], lam[-1]))


def _eig_tol(norm, k):
    """Tolerance on eigenvalues of ``R - k Id``, relative to the query."""
    return 1e-9 * max(norm, abs(k))


def thorpe_sec_min(R, norm=None):
    """Exact minimum sectional curvature for n = 4 via the star shift.

    ``min sec = max_t lambda_min(R + t star)``: the bound ``sec >= k``
    holds iff the shifted operator can be made positive semidefinite, and
    shifting by k Id moves every eigenvalue by -k.  The search runs on
    ``R / |R|_2`` over t in [-2, 2] with ``concave_max``; the value and
    t* are scaled back.  One ``eigh`` per probe gives the value
    lambda_0, the supergradient ``v_0 . star v_0`` and the second
    derivative ``2 sum_j (v_j . star v_0)^2 / (lambda_0 - lambda_j)``
    from first-order perturbation, over the eigenvalues lambda_j split
    from lambda_0.  ``norm`` is |R|_2 when the caller has it.  Returns
    (value, t*, (lam, vec)), the last the eigendecomposition of
    ``R + t* star`` that the best probe computed, so that no caller
    solves it again.
    """
    if R.n != 4:
        raise ValueError("the star-shift argument needs n = 4")
    star = four_form_matrix(4)
    if norm is None:
        norm = _spectral_norm(R.mat)
    if norm == 0.0:
        return 0.0, 0.0, (np.zeros(6), np.eye(6))
    unit = R.mat / norm
    eps = 4.0 * np.finfo(float).eps
    solved = {}

    def mu(t):
        lam, vec = solved[t] = np.linalg.eigh(unit + t * star)
        # six numbers: Python floats cost less here than numpy calls
        lam0, *lams = lam.tolist()
        c0, *cs = ((star @ vec[:, 0]) @ vec).tolist()
        curv = 0.0
        for cj, lj in zip(cs, lams):
            if lj - lam0 > eps:
                curv -= 2.0 * cj * cj / (lj - lam0)
        return lam0, c0, curv

    t_star, val = concave_max(mu, -2.0, 2.0)
    lam, vec = solved[t_star]
    return norm * val, norm * t_star, (norm * lam, vec)


def _thorpe_plane(lam, vec, tol):
    """A plane whose sec under S is about ``lambda_min(S + t star)`` at the
    search's best probe t, read off its eigendecomposition (n = 4).

    Let B span the eigenvectors within ``tol`` of the least eigenvalue.
    If B is one vector v, ``<v, star v>`` is the slope at t, which the
    search has driven to zero.  Otherwise t is the optimum t*, where the
    range of ``<v, star v>`` over unit v in span(B) is an interval
    containing 0, and mixing its two extreme directions gives a unit
    ``v = B c`` with ``<v, star v> = 0``.  That is the Pluecker relation
    at n = 4: v is decomposable, its 4 x 4 skew matrix M is
    ``x y^T - y x^T`` for an orthonormal pair, so M's longest column lies
    in the plane, and M maps it to an orthogonal vector of the plane (M
    is skew).  A small ``<v, star v>`` moves sec off the value only to
    second order.
    """
    B = vec[:, lam <= lam[0] + tol]
    v = B[:, 0]
    if B.shape[1] > 1:
        star = four_form_matrix(4)
        w, W = np.linalg.eigh(B.T @ star @ B)
        lo, hi = w[0], w[-1]
        # cos^2 lo + sin^2 hi = 0, clipped where rounding left 0 just outside
        cos2 = float(np.clip(hi / (hi - lo), 0.0, 1.0)) if hi > lo else 1.0
        v = B @ (math.sqrt(cos2) * W[:, 0] + math.sqrt(1.0 - cos2) * W[:, -1])
    M = (v @ ml.two_forms(4).reshape(6, 16)).reshape(4, 4)
    x = M[:, np.argmax(np.einsum("ij,ij->j", M, M))]
    x = x / np.linalg.norm(x)
    y = M @ x
    return TwoPlane(x, y / np.linalg.norm(y))


def _plane_doc(R, plane):
    return {"x": plane.x.tolist(), "y": plane.y.tolist(),
            "sec": sec(R, plane)}


@dataclass
class HierarchyResult:
    n: int
    k: float
    p_max: int
    rows: list                 # (p, lambda_min)
    refuted_at: int | None
    tol: float
    witness: Witness | None = None     # bottom eigenpolynomial at refuted_at

    @property
    def verdict(self):
        return "refuted" if self.refuted_at is not None else (
            "inconclusive_for_certification"
        )

    def to_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "p_max": self.p_max,
            "rows": [{"p": p, "lambda_min": v} for (p, v) in self.rows],
            "refuted_at": self.refuted_at,
            "tol": self.tol,
            "verdict": self.verdict,
        }


def hierarchy_check(R, k, p_max=6):
    """Least eigenvalues of K(R - k Id, Harm^p) for p = 1..p_max.

    ``K(Id, Harm^p) = p (p + n - 2) Id``, so each row is
    ``lambda_min K(R, Harm^p) - k p (p + n - 2)``, and R - k Id is never
    formed.  p = 1 is the Ricci test.  Any row below ``-tol``,
    ``tol = 1e-9 * max(|R|_2, |k|)``, refutes ``sec >= k``; all-nonnegative
    rows are necessary-condition passes only, never a certification.  At
    the first refuting level the eigenpolynomial of the least eigenvalue
    is kept as ``witness``.
    """
    tol = _eig_tol(_spectral_norm(R.mat), k)
    n = R.n
    rows = []
    refuted_at = witness = None
    for p in range(1, p_max + 1):
        space = ml.build_traceless(n, p)
        K = wz.curvature_term(R, space)
        shift = k * p * (p + n - 2)
        lam = K.lambda_min() - shift
        rows.append((p, lam))
        if refuted_at is None and lam < -tol:
            refuted_at = p
            vals, vecs = np.linalg.eigh(K.mat)
            witness = Witness(n=n, p=p, value=float(vals[0]) - shift,
                              coords=vecs[:, 0].copy())
    return HierarchyResult(n=n, k=k, p_max=p_max, rows=rows,
                          refuted_at=refuted_at, tol=tol, witness=witness)


@dataclass
class Witness:
    n: int
    p: int
    value: float
    coords: np.ndarray     # on the build_traceless(n, p) basis

    def to_dict(self):
        """``poly`` lists ``[exponents, coefficient]`` of the monomials x^l
        in basis order: the coefficient is ``(C^T coords)_l / sqrt(l!)``,
        and exact zeros are left out."""
        space = ml.build_traceless(self.n, self.p)
        coeffs = (space.change_of_basis.T @ self.coords
                  / ml.monomial_norms(self.n, self.p))
        return {
            "p": self.p,
            "value": self.value,
            "poly": [[list(e), c] for e, c in zip(space.basis, coeffs)
                     if c != 0.0],
        }


def witness_search(R, k, p_max=6):
    """The hierarchy's witness polynomial, or None if every level passes."""
    return hierarchy_check(R, k, p_max=p_max).witness


# Random starts of the plane search in ``certify_bound`` (n != 4).
_PLANE_RESTARTS = 40


def certify_bound(R, k, direction="ge", strict=False, p_max=6, seed=None):
    """Top-level bound decision for an operator.

    The shift engine computes ``mu = max_omega lambda_min(R - k Id + omega)``
    over four-forms omega, which ``sec`` cannot see: multiples of the Hodge
    star at n = 4 (method ``thorpe_exact``, where the test is exact), and
    omega = 0 otherwise (``psd_shift``, sufficient only).  The bound is
    certified when ``mu > tol``, or ``mu >= -tol`` if not strict; a strict
    query inside that band is inconclusive, since equality cannot be told
    from a strict margin at working precision.  Below the band, n = 4 is
    refuted by the plane read off the search's best probe when its sec is
    below ``k - tol``, and inconclusive otherwise.  Other n first search
    for a plane below ``k - tol`` (a minimizing run only) and refute with
    it, with no ``hierarchy`` in the witness; only when no plane refutes
    does the hierarchy run, and its all-pass is inconclusive.
    ``direction="le"`` is handled by negating the operator and the bound.
    """
    if direction not in ("ge", "le"):
        raise ValueError("direction must be 'ge' or 'le'")
    if direction == "le":
        inner = certify_bound(
            CurvatureOperator._from_symmetric(R.n, -R.mat), -k, "ge",
            strict=strict, p_max=p_max, seed=seed,
        )
        witness = dict(inner.witness)
        if "plane" in witness:
            witness["plane"] = dict(witness["plane"])
            witness["plane"]["sec"] = -witness["plane"]["sec"]
        return Certificate(
            n=R.n, k=k, direction="le", verdict=inner.verdict,
            method=inner.method, strict=strict, witness=witness,
            tolerances=inner.tolerances,
        )
    # the extreme eigenvalues of R give both |R|_2 and |R - k Id|_2
    lam = np.linalg.eigvalsh(R.mat)[[0, -1]]
    tol = _eig_tol(float(max(-lam[0], lam[1])), k)
    S = CurvatureOperator._from_symmetric(R.n, R.mat - k * np.eye(R.N))
    tolerances = {"eig_tol": tol}
    if R.n == 4:
        mu, t_star, eig = thorpe_sec_min(
            S, norm=float(max(k - lam[0], lam[1] - k)))
        method, witness = "thorpe_exact", {"t_star": t_star, "mu_max": mu}
        tolerances["gap_tol"] = _GAP_TOL
    else:
        mu = float(np.linalg.eigvalsh(S.mat)[0])
        method, witness = "psd_shift", {"lambda_min": mu}

    def decide(verdict, how=method, **more_tolerances):
        return Certificate(
            n=R.n, k=k, direction="ge", verdict=verdict, method=how,
            strict=strict, witness=witness,
            tolerances=dict(tolerances, **more_tolerances),
        )

    if mu > tol or (mu >= -tol and not strict):
        return decide("certified")
    if mu >= -tol:
        return decide("inconclusive_for_certification")
    if R.n == 4:
        plane = _plane_doc(R, _thorpe_plane(*eig, tol))
        if plane["sec"] >= k - tol:
            # the optimum's plane does not violate the bound
            return decide("inconclusive_for_certification")
        witness["plane"] = plane
        return decide("refuted")
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    value, plane, _ = _sec_min(R, _PLANE_RESTARTS, rng)
    if value < k - tol:
        witness["plane"] = _plane_doc(R, plane)
        return decide("refuted", "grassmann_opt", plane_margin=tol)
    hier = hierarchy_check(R, k, p_max=p_max)
    witness["hierarchy"] = hier.to_dict()
    if hier.witness is not None:
        witness["eigen_direction"] = hier.witness.to_dict()
    return decide(hier.verdict, "hierarchy")
