"""Certification of sectional-curvature bounds for curvature operators.

``certify_bound`` and ``sec_extremes`` read one record per operator,
``_solve``, kept for the last two operators:

* the shift test: sec is the quadratic form of R on unit decomposable
  two-forms, and a four-form omega vanishes on them, so
  ``lambda_min(R - k Id + omega) >= 0`` for some omega proves
  ``sec >= k``.  ``lambda_min(R - k Id + omega) + k`` does not depend on
  k, so the record keeps its maximum m over the four-forms tried, a lower
  bound on min sec, and the sec of a plane, an upper bound: one solve of
  R serves every k, and with one of -R both directions and
  ``sec_extremes``.  At n = 4 the four-forms are the multiples of the
  Hodge star and the test is exact (Thorpe): ``lambda_min(R - k Id + t
  star)`` is concave in t.  When R commutes with star (the Einstein
  operators and their four-form shifts), ``lambda_min(R + t star) = min(a
  - t, c + t)`` for the least eigenvalues a, c of R on the two halves of
  star, maximal at ``t = (a - c) / 2``; else ``thorpe_sec_min`` maximizes
  it with ``concave_max`` by Newton steps in an eigenbasis of star.  The
  bottom eigenvector of each probe, its two halves rescaled to equal
  length, is a real plane whose sec bounds the maximum from above, so the
  search stops on a closed duality gap, and the plane of the least such
  bound is the record's; a kinked maximum is closed by a last probe at
  the crossing of the bracket ends' tangents, which lands on it.  For
  other n the test takes omega = 0, which is sufficient only.

* the plane search (the record's plane for n != 4): minimization of the
  sectional curvature over the Grassmannian of 2-planes by alternating
  exact eigen-steps, batched over one start per eigenvector of R, the
  plane that eigenvector rounds to.  With x fixed, sec(x, .) is the
  quadratic form of the Jacobi matrix ``J_x[j, l] = R(x ^ e_j, x ^ e_l)
  = sum_ik x_i x_k R_ijkl``, read off the one (n^2, n^2) matrix of
  R_ijkl (``multilinear.curvature_tensor``), so the best y is its bottom
  eigenvector on x^perp, where a shift by a multiple of |R|_2 along x
  puts it; then x and y swap roles.  The value never increases and there
  is no step size, and no step draws a random number: a verdict depends
  on (R, k, direction, strict) alone.  At n = 4 it does not run: the
  star-shift solve is exact.

``hierarchy_check`` is the paper's necessary condition as a library
check, outside the decision: ``K(R - k Id, Harm^p)`` is positive
semidefinite for every p when ``sec >= k`` (p = 1 is the Ricci test).
Since ``K(Id, Harm^p) = p (p + n - 2) Id``, level p is
``lambda_min K(R, Harm^p) - k p (p + n - 2)``: the assembly and the
eigensolve do not depend on k.  It imports ``weitzenbock`` when called,
so a decision never loads the K(R) machinery.

Every eigenvalue test uses ``tol = 1e-9 * max(|R|_2, |k|)``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import multilinear as ml
from .curvature import CurvatureOperator, TwoPlane, four_form_matrix, sec


# ---------------------------------------------------------------------------
# maximization of a concave function from its supergradients


# Gap, on the scale of f's values, between the best probe and an upper
# bound on the maximum at which the search for the star shift t* stops
# (and the spread within which it counts lambda_0 as multiple); the
# bracket width at which it stops regardless, and the probes, the first
# included, after which it only bisects.  A first probe of nonzero slope
# leaves at most one bracket end unprobed, the next probe takes it, each
# midpoint, unclipped, halves the bracket until it is _T_TOL wide, and
# one probe at the crossing of the ends' tangents comes last: no input
# takes more than _FAST_PROBES + 2 + ceil(log2((hi - lo) / _T_TOL)).
_GAP_TOL = 1e-13
_T_TOL = 1e-10
_FAST_PROBES = 40


def concave_max(f, lo, hi, start):
    """Maximize a concave function on [lo, hi] from its supergradients.

    ``f(t)`` returns ``(value, slope, curvature)``, optionally followed by
    an upper bound on the maximum (``inf`` for none): the slope is any
    supergradient at t, and the curvature an estimate of the second
    derivative, used only when it is negative.  A probe with positive
    slope moves the bracket's left end to it, a negative slope the right
    end, and a zero slope ends the search.  So does the least upper bound
    f returned once it is within ``_GAP_TOL`` of the best probe (values
    of order one, as ``thorpe_sec_min`` scales them).  The first probe is
    at ``start``, clipped to the bracket, and each next one at the first
    of these that lies in the bracket: the Newton point of the last probe
    if it is at most half the bracket's width away, the crossing of the
    tangents at the bracket ends once both are probes, a bracket end not
    yet probed, the midpoint.  It is kept ``_T_TOL / 2`` away from the
    probed ends.  A bracket ``_T_TOL`` wide ends the search, and so does a
    height at which the ends' tangents cross (which bounds a kinked
    maximum) within ``_GAP_TOL`` of the best probe; when both ends are
    probes, one last probe goes to that crossing, where the maximum is
    pinned: on a kink it lands on the tip, where f can return the bound
    that closes the gap.
    Concavity is checked along the way: each value must lie on or below
    every earlier tangent line (up to noise), which holds for every
    concave function -- kinked or monotone included -- and fails for
    genuinely bimodal input.  Returns the best probe (t, value).
    """
    ts, values, slopes = [], [], []
    least = math.inf        # the least upper bound f returned
    a, b = float(lo), float(hi)
    ia = ib = None          # the probes at the bracket ends

    def probe(t):
        nonlocal least, a, b, ia, ib
        value, slope, curv, *bound = f(t)
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
        if bound:
            least = min(least, bound[0])
        if slope > 0.0:
            a, ia = t, len(ts) - 1
        elif slope < 0.0:
            b, ib = t, len(ts) - 1
        return curv

    curv = probe(min(max(float(start), a), b))
    half = 0.5 * _T_TOL
    while slopes[-1] != 0.0 and least - max(values) > _GAP_TOL:
        fast = len(ts) < _FAST_PROBES
        candidates = []
        if fast and curv < 0.0 and abs(slopes[-1] / curv) <= 0.5 * (b - a):
            candidates.append(ts[-1] - slopes[-1] / curv)
        if ia is not None and ib is not None:
            ga, gb = slopes[ia], slopes[ib]
            cross = (values[ib] - values[ia] + ga * a - gb * b) / (ga - gb)
            height = values[ia] + ga * (cross - a)
            if b - a <= _T_TOL or height - max(values) <= _GAP_TOL:
                # the maximum is pinned between the ends: a last probe at
                # the crossing lands on a kink there
                probe(min(max(cross, a), b))
                break
            if fast:
                candidates.append(cross)
        elif b - a <= _T_TOL:
            break
        candidates += [a if ia is None else b if ib is None else 0.5 * (a + b)]
        t = next(s for s in candidates if a <= s <= b)
        curv = probe(min(max(t, a if ia is None else a + half),
                         b if ib is None else b - half))
    i = values.index(max(values))
    return ts[i], values[i]


# The perfbench tracer binds the search by this name; ROADMAP item 3
# removes the alias.
golden_max = concave_max


# ---------------------------------------------------------------------------
# sectional curvature extremes over the Grassmannian


@dataclass
class SecExtremes:
    """``sec_extremes``'s result.  Each value is ``sec`` of its plane;
    ``converged_fraction`` is the mean over the solves of R and -R of the
    share of the plane search's starts, one per eigenvector, that stopped
    descending within ``_MAX_SWEEPS`` sweeps: 1.0 at n = 4, where no
    descent runs."""

    min_value: float
    max_value: float
    min_plane: TwoPlane
    max_plane: TwoPlane
    converged_fraction: float


# Sweeps per start before it counts as unconverged, and the decrease per
# sweep, relative to |R|_2, below which a start has stopped descending
# (a few ulps: anything smaller is rounding, not progress).
_MAX_SWEEPS = 500
_STALL = 1e-15


def _partner(H, x, shift):
    """Best unit partners y of the unit vectors x_b, with their values.

    sec(x, y) is the quadratic form at y of the Jacobi matrix ``J_x =
    (x (x) x) . H``, ``H = curvature_tensor(R)``, formed for the whole
    batch in one product.  ``J_x x = 0``, and on x^perp its values are
    secs, within [-|R|_2, |R|_2]: with ``shift > |R|_2``, x is the top
    eigenvector of ``J_x + shift x x^T``, and the bottom one is the y
    perpendicular to x that minimizes sec(x, .).
    """
    xx = x[:, :, None] * x[:, None, :]
    J = (xx.reshape(len(x), -1) @ H).reshape(xx.shape) + shift * xx
    w, V = np.linalg.eigh(J)
    return w[:, 0], V[:, :, 0]


def _descend(H, x, norm):
    """Minimize sec from each start x_b by alternating eigen-steps.

    A sweep sets y to the best partner of x, then x to the best partner
    of y (``_partner`` on ``H = curvature_tensor(R)``, shifted by
    ``2 norm``, norm = |R|_2, or by 1 when R = 0).  Each step is exact,
    so the value never increases and there is no step size.  A start
    stops once a sweep no longer lowers its value (by ``_STALL * norm``).
    Returns the final values and frames and the number of starts that
    stopped within ``_MAX_SWEEPS``.
    """
    shift = 2.0 * norm or 1.0
    stall = _STALL * norm
    value = np.full(x.shape[0], np.inf)
    y = np.empty_like(x)
    active = np.arange(x.shape[0])
    for _ in range(_MAX_SWEEPS):
        _, y[active] = _partner(H, x[active], shift)
        f, x[active] = _partner(H, y[active], shift)
        lowered = f < value[active] - stall
        value[active] = f
        active = active[lowered]
        if active.size == 0:
            break
    return value, x, y, x.shape[0] - active.size


def _sec_min(R, eig=None):
    """Lowest sec reached by ``_descend`` from each eigenvector v of R,
    started at the first vector of its rounded plane: the top two left
    singular vectors of v's skew matrix, ``s v_a`` at (i, j) for each
    product ``e_i ^ e_j = s e_a`` of the (n, 1, 1) wedge table, span, when
    its top singular value is simple, the plane of the decomposable
    two-form nearest v.  ``eig = eigh(R.mat)``, solved when not given.
    Returns (value, plane, fraction of the starts that converged), where
    value is ``sec`` of the returned orthonormal plane."""
    lam, V = np.linalg.eigh(R.mat) if eig is None else eig
    out, i, j, val = ml.product_table("exterior", R.n, 1, 1)
    S = np.zeros((lam.size, R.n, R.n))
    S[:, i, j] = val * V[out].T
    U = np.linalg.svd(S)[0]
    f, x, y, converged = _descend(ml.curvature_tensor(R.mat, R.n), U[:, :, 0],
                                  max(-lam[0], lam[-1]))
    b = int(np.argmin(f))
    plane = TwoPlane.orthonormalized(x[b], y[b])
    return sec(R, plane), plane, converged / f.size


def sec_extremes(R):
    """Extremal sectional curvatures with extremal planes as witnesses.

    The planes of the records (``_solve``) of R, for the minimum, and of
    -R, for the maximum: exact at n = 4, the plane search's for other n.
    The records stay in the memo that ``certify_bound`` reads, so ge and le
    queries on R solve nothing more.  Each reported value is ``sec`` of
    the reported plane.
    """
    *_, low, x, y, conv_low = _solve(R.mat.tobytes(), R.n)
    *_, high, u, v, conv_high = _solve((-R.mat).tobytes(), R.n)
    return SecExtremes(low, -high, TwoPlane(x, y), TwoPlane(u, v),
                       0.5 * (conv_low + conv_high))


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    """Outcome of a bound query ``sec >= k`` (or ``<= k``) for an operator."""

    n: int
    k: float
    direction: str            # "ge" or "le"
    verdict: str              # certified / refuted / inconclusive_for_certification
    method: str               # thorpe_exact / psd_shift / grassmann_opt
    strict: bool
    bounds: dict              # {"lower", "upper"} of the queried extreme
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


# Tolerance on eigenvalues of ``R - k Id``, relative to the query:
# ``tol = _EIG_TOL * max(|R|_2, |k|)``.
_EIG_TOL = 1e-9


@lru_cache(maxsize=None)
def _star_eigenbasis():
    """``(Q, J, j)``: ``star = Q J Q^T`` at n = 4 with ``J = diag(j)``,
    ``j = (-1, -1, -1, 1, 1, 1)`` (the anti-self-dual half first)."""
    j, Q = np.linalg.eigh(four_form_matrix(4))
    j = np.sign(j)
    J = np.diag(j)
    for a in (Q, J, j):
        a.flags.writeable = False
    return Q, J, j


def _star_split(mat):
    """``(lo, hi, m, t*, w)``, floats and a 6-tuple of floats, of an n = 4
    operator matrix with ``star R star = R`` exactly (by value), else None.

    star is the signed reversal ``e_i -> s_i e_{5-i}`` (i from 0), so such
    an R is ``diag(A, C)`` on star's halves ``(e_i -+ s_i e_{5-i}) / sqrt 2``,
    i < 3, with ``A_ij = R_ij - s_j R_{i,5-j}`` and ``C_ij = R_ij + s_j
    R_{i,5-j}``, exactly symmetric.  ``lambda_min(R + t star) = min(a - t,
    c + t)`` for the least eigenvalues a of A and c of C peaks at ``t* =
    (a - c) / 2`` with ``m = (a + c) / 2``, and their bottom eigenvectors
    u, v give a plane of sec m: ``w_i = (u_i + v_i) / 2``, ``w_{5-i} =
    s_i (v_i - u_i) / 2``.  One stacked ``eigh`` gives all of it, and R's
    extreme eigenvalues lo and hi."""
    star = four_form_matrix(4)
    # R_00 = R_55 first: a scalar test that most operators fail
    if mat[0, 0] != mat[5, 5] or not (star.dot(mat).dot(star) == mat).all():
        return None
    s = star[::-1].diagonal()
    top, cross = mat[:3, :3], mat[:3, :2:-1] * s[:3]
    lam, vec = np.linalg.eigh(np.array([top - cross, top + cross]))
    (a, _, a_top), (c, _, c_top) = lam.tolist()
    (u0, u1, u2), (v0, v1, v2) = vec[:, :, 0].tolist()
    s0, s1, s2 = s[:3].tolist()
    w = (0.5 * (u0 + v0), 0.5 * (u1 + v1), 0.5 * (u2 + v2),
         0.5 * s2 * (v2 - u2), 0.5 * s1 * (v1 - u1), 0.5 * s0 * (v0 - u0))
    return min(a, c), max(a_top, c_top), 0.5 * (a + c), 0.5 * (a - c), w


def _decomposable(u):
    """u, in the eigenbasis of star, with each half rescaled to length
    1/sqrt 2 (a half that vanishes becomes its first basis vector): a unit
    two-form w with ``<w, star w> = 0``, so decomposable by the Pluecker
    relation."""
    u = u.tolist()
    w = []
    for half in (u[:3], u[3:]):
        r = math.hypot(*half)
        if r == 0.0:
            half, r = [1.0, 0.0, 0.0], 1.0
        w += [h / (r * math.sqrt(2.0)) for h in half]
    return np.array(w)


def _isotropic(B, j):
    """A unit vector of the span of B's m orthonormal columns on which the
    form of ``J = diag(j)`` vanishes, or None when the form takes one sign
    only there: ``cos a w_lo + sin a w_hi`` for the span's directions of
    least and greatest J-value, with ``cos^2 a lo + sin^2 a hi = 0``,
    from one ``eigh`` of the form on the span.
    """
    s, W = np.linalg.eigh(B.T.dot(j[:, None] * B))
    lo, hi = float(s[0]), float(s[-1])
    if not lo <= 0.0 <= hi:
        return None
    cos2 = hi / (hi - lo) if hi > lo else 1.0
    return B.dot(math.sqrt(cos2) * W[:, 0] + math.sqrt(1.0 - cos2) * W[:, -1])


def thorpe_sec_min(R, norm=None):
    """Exact minimum sectional curvature for n = 4 via the star shift.

    ``min sec = max_t lambda_min(R + t star)``: the bound ``sec >= k``
    holds iff the shifted operator can be made positive semidefinite, and
    shifting by k Id moves every eigenvalue by -k.  An R that commutes
    with star is answered in closed form by ``_star_split``, one 3 x 3
    eigensolve of each half; for any other R ``concave_max`` runs
    on ``M = R / |R|_2`` over t in [-2, 2], in an eigenbasis of star,
    where star is ``J = diag(-1, -1, -1, 1, 1, 1)``.  It starts where the
    traces of M + t J on the two halves balance,
    ``t = (tr M|- - tr M|+) / 6``; the value and t* are scaled back.

    A probe is one ``eigh(M + t J)`` and one product of its eigenvectors
    with ``J v_0``; the rest is arithmetic on Python floats.  Its bottom
    eigenvector v_0, with anti-self-dual half p and self-dual half q,
    gives the supergradient ``|q|^2 - |p|^2`` and, over the eigenvalues
    lambda_j split from lambda_0, the second derivative
    ``2 sum_j (v_j . J v_0)^2 / (lambda_0 - lambda_j)`` (first-order
    perturbation).  v_0 with both halves rescaled to length 1/sqrt 2 is a
    unit two-form w with ``<w, J w> = 0``, decomposable by the Pluecker
    relation, so ``w^T M w = w^T (M + t J) w`` is the sec of a real plane
    (shifted and scaled) and bounds the maximum from above.  With beta
    half the difference of the two rescaling factors it equals
    ``lambda_0 + beta^2 sum_j (lambda_j - lambda_0) (v_j . J v_0)^2``,
    above lambda_0 by a term second order in the slope, and the search
    stops once the least such bound is within ``_GAP_TOL`` of the best
    probe.  The bound is formed only while |slope| <= 1/2, where neither
    rescaling factor exceeds sqrt 2.  When lambda_0 is multiple (within
    ``_GAP_TOL``) and the slopes over its eigenspace take both signs, the
    probe is a kink at the maximum: its slope is 0, and w is the mix of
    the two extreme-slope directions with ``<w, J w> = 0`` that
    ``_isotropic`` forms, whose bound is the eigenspace's top eigenvalue.
    ``concave_max`` ends a search that has not closed the gap with a
    probe at the crossing of its bracket ends' tangents, which lands on
    a kinked maximum, so the gap closes on kinks too.

    ``norm`` is |R|_2 when the caller has it.  Returns (value, t*, w): the
    best probe's lambda_0 and t, scaled back, and, in the pair basis, the
    w of the least bound (of the best probe when none was formed); once
    the gap has closed, ``w^T R w`` exceeds the value by at most
    ``_GAP_TOL |R|_2``.
    """
    if R.n != 4:
        raise ValueError("the star-shift argument needs n = 4")
    split = _star_split(R.mat)
    if split is not None:
        return split[2], split[3], np.array(split[4])
    if norm is None:
        norm = _spectral_norm(R.mat)
    Q, J, j = _star_eigenbasis()
    # ndarray.dot, here and below: on 6 x 6 operands the matmul ufunc's
    # dispatch costs as much as the product, and the result is the same
    unit = Q.T.dot(R.mat).dot(Q) / norm
    d = unit.diagonal().tolist()
    start = (d[0] + d[1] + d[2] - d[3] - d[4] - d[5]) / 6.0
    probes = []                 # (bound, value, u) of each probe

    def mu(t):
        lam, vec = np.linalg.eigh(unit + t * J)
        u = vec[:, 0]
        # c_j = v_j . J v_0, and c_0 = |q|^2 - |p|^2 is the slope; six
        # numbers, for which Python floats cost less than numpy calls
        lam0, *lams = lam.tolist()
        slope, *cs = (j * u).dot(vec).tolist()
        curv = spread = 0.0
        for cj, lj in zip(cs, lams):
            split, c2 = lj - lam0, cj * cj
            spread += split * c2
            if split > _GAP_TOL:
                curv -= 2.0 * c2 / split
        bound = math.inf
        if lams[0] - lam0 <= _GAP_TOL:
            m = 1 + sum(lj - lam0 <= _GAP_TOL for lj in lams)
            mix = _isotropic(vec[:, :m], j)
            if mix is not None:
                # the value of a unit w in the cluster's span is at most
                # its top eigenvalue
                u, slope, bound = mix, 0.0, lams[m - 2]
        if bound == math.inf and abs(slope) <= 0.5:
            beta = 0.5 * (1.0 / math.sqrt(1.0 + slope)
                          - 1.0 / math.sqrt(1.0 - slope))
            bound = lam0 + beta * beta * spread
        probes.append((bound, lam0, u))
        return lam0, slope, curv, bound

    t_star, val = concave_max(mu, -2.0, 2.0, start=start)
    # the least bound; the best probe if every bound is infinite
    _, _, u = min(probes, key=lambda p: (p[0], -p[1]))
    return norm * val, norm * t_star, Q.dot(_decomposable(u))


def _thorpe_plane(w):
    """The plane ``(x, y)``, two tuples of Python floats, of a unit
    decomposable two-form w at n = 4, read off w's six coordinates.

    w's 4 x 4 skew matrix M is ``x y^T - y x^T`` for an orthonormal basis
    (x, y) of its plane, so its longest column lies in the plane (its
    squared length is at least 1/2), and M maps that column to an
    orthogonal vector of the plane.
    """
    a, b, c, d, e, f = w                # w_12, w_13, w_14, w_23, w_24, w_34
    # M's columns: M_ij = w_ij above the diagonal, so column j is -(row j)
    cols = ((0.0, -a, -b, -c), (a, 0.0, -d, -e), (b, d, 0.0, -f),
            (c, e, f, 0.0))
    lengths = [p * p + q * q + r * r + s * s for p, q, r, s in cols]
    longest = max(lengths)
    r = math.sqrt(longest)
    # + 0.0 turns the negative zeros of the negated entries into 0.0
    x0, x1, x2, x3 = [p / r + 0.0 for p in cols[lengths.index(longest)]]
    y0, y1, y2, y3 = (a * x1 + b * x2 + c * x3, -a * x0 + d * x2 + e * x3,
                      -b * x0 - d * x1 + f * x3, -c * x0 - e * x1 - f * x2)
    r = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3)
    return (x0, x1, x2, x3), tuple(v / r + 0.0 for v in (y0, y1, y2, y3))


@lru_cache(maxsize=2)
def _solve(key, n):
    """``(lo, hi, m, t*, sec, x, y, converged)`` of the operator R on
    R^n with matrix bytes ``key``: R's extreme eigenvalues; m, the
    largest ``lambda_min(R + omega)`` found over four-forms omega, a lower
    bound on min sec, with the star shift t* at n = 4 (None otherwise);
    a plane (x, y) with its sec, an upper bound; and the share of the
    plane search's starts that converged (1.0 at n = 4, where it does not
    run).  All Python floats, tuples of them, or None, so a query that
    finds the record runs no numpy past its key, and no caller can change
    it.

    At n = 4, ``thorpe_sec_min``'s value and shift, and the plane that
    ``_thorpe_plane`` reads off its two-form: a cold solve of an R that
    commutes with star is ``_star_split``'s one ``eigh``; any other R
    makes one ``eigvalsh`` and one ``eigh`` per probe, plus an ``eigh``
    per probe on a kink.  Other n take omega = 0, so m = lo from one
    ``eigh``, whose eigenvectors start ``_sec_min``'s plane search.  The
    last two operators are kept, so alternating ge and le queries on R, or
    ``sec_extremes`` and then such queries, solve R and -R once each, and
    the memo does not grow with them."""
    N = n * (n - 1) // 2
    mat = np.frombuffer(key).reshape(N, N)
    if n != 4:
        eig = np.linalg.eigh(mat)
        lo, hi = eig[0][[0, -1]].tolist()
        value, plane, converged = _sec_min(
            CurvatureOperator._from_symmetric(n, mat), eig)
        # + 0.0 turns the negative zeros of qr's plane into 0.0
        x, y = (tuple(v + 0.0 for v in w.tolist()) for w in (plane.x, plane.y))
        return lo, hi, lo, None, value, x, y, converged
    split = _star_split(mat)
    if split is None:
        lam = np.linalg.eigvalsh(mat).tolist()
        m, t_star, w = thorpe_sec_min(CurvatureOperator._from_symmetric(
            4, mat), norm=max(-lam[0], lam[-1]))
        split = lam[0], lam[-1], m, t_star, w.tolist()
    lo, hi, m, t_star, w = split
    x, y = _thorpe_plane(w)
    (x0, x1, x2, x3), (y0, y1, y2, y3) = x, y
    # sec is the form of R at the pair coordinates of x ^ y
    s = np.array([x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x0 * y3 - x3 * y0,
                  x1 * y2 - x2 * y1, x1 * y3 - x3 * y1, x2 * y3 - x3 * y2])
    return lo, hi, m, t_star, float(s.dot(mat).dot(s)), x, y, 1.0


@dataclass
class HierarchyResult:
    rows: list                 # (p, lambda_min)
    refuted_at: int | None
    witness: Witness | None = None     # bottom eigenpolynomial at refuted_at


def hierarchy_check(R, k, p_max=6):
    """Least eigenvalues of K(R - k Id, Harm^p) for p = 1..p_max.

    ``K(Id, Harm^p) = p (p + n - 2) Id``, so each row is
    ``lambda_min K(R, Harm^p) - k p (p + n - 2)``, and R - k Id is never
    formed.  p = 1 is the Ricci test.  Any row below ``-tol``,
    ``tol = 1e-9 * max(|R|_2, |k|)``, refutes ``sec >= k``; all-nonnegative
    rows are necessary-condition passes only, never a certification.  At
    the first refuting level the eigenpolynomial of the least eigenvalue
    is kept as ``witness``.  A k that is not finite raises ``ValueError``.
    """
    from . import weitzenbock as wz

    if not math.isfinite(k):
        raise ValueError(f"the bound k must be finite, got {k!r}")
    tol = _EIG_TOL * max(_spectral_norm(R.mat), abs(k))
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
    return HierarchyResult(rows=rows, refuted_at=refuted_at, witness=witness)


@dataclass
class Witness:
    n: int
    p: int
    value: float
    coords: np.ndarray     # on the build_traceless(n, p) basis


def witness_search(R, k, p_max=6):
    """The hierarchy's witness polynomial, or None if every level passes;
    a k that is not finite raises ``ValueError``."""
    return hierarchy_check(R, k, p_max=p_max).witness


def certify_bound(R, k, direction="ge", strict=False):
    """Top-level bound decision for an operator.

    The decision reads R's record (``_solve``), which holds
    ``m = max_omega lambda_min(R + omega)`` over four-forms omega, which
    ``sec`` cannot see: multiples of the Hodge star at n = 4 (method
    ``thorpe_exact``, where the test is exact), and omega = 0 otherwise
    (``psd_shift``, sufficient only).  ``mu = m - k`` is the shift test's
    value at k; the bound is certified when ``mu > tol``, or ``mu >= -tol``
    if not strict; a strict query inside that band is inconclusive, since
    equality cannot be told from a strict margin at working precision.
    Below the band the record's plane refutes the bound when its sec is
    below ``k - tol`` (method ``grassmann_opt`` for n != 4, where the plane
    search is not guaranteed to find such a plane), and the answer is
    inconclusive otherwise.  The record is kept with the one before it
    (of -R for a ge/le pair): a query on a kept operator calls no
    eigensolver.  ``direction="le"`` is decided as ``sec >= -k`` of -R,
    and answered in the caller's terms: its k and direction, the plane's
    sec of R, and ``bounds``, the record's [m, sec] bracket of the queried
    extreme (``[-sec, -m]`` of -R's record for le).  A k that is not
    finite raises ``ValueError``."""
    if direction not in ("ge", "le"):
        raise ValueError("direction must be 'ge' or 'le'")
    if not math.isfinite(k):
        raise ValueError(f"the bound k must be finite, got {k!r}")
    le = direction == "le"
    k_ge = -k if le else k          # the bound of the "ge" query decided
    mat = -R.mat if le else R.mat   # and the operator it is decided on
    lo, hi, m, t_star, value, x, y, _ = _solve(mat.tobytes(), R.n)
    mu = m - k_ge
    tol = _EIG_TOL * max(-lo, hi, abs(k_ge))
    tolerances = {"eig_tol": tol}
    if R.n == 4:
        method, witness = "thorpe_exact", {"t_star": t_star, "mu_max": mu}
        tolerances["gap_tol"] = _GAP_TOL
    else:
        method, witness = "psd_shift", {"lambda_min": mu}
    if mu > tol or (mu >= -tol and not strict):
        verdict = "certified"
    elif mu >= -tol or value >= k_ge - tol:
        # inside the band, or the plane found does not violate the bound
        verdict = "inconclusive_for_certification"
    else:
        verdict = "refuted"
        witness["plane"] = {"x": list(x), "y": list(y),
                            "sec": (-value if le else value) + 0.0}
        if method == "psd_shift":
            method, tolerances["plane_margin"] = "grassmann_opt", tol
    lower, upper = (-value, -m) if le else (m, value)
    return Certificate(n=R.n, k=k, direction=direction, verdict=verdict,
                       method=method, strict=strict,
                       bounds={"lower": lower + 0.0, "upper": upper + 0.0},
                       witness=witness, tolerances=tolerances)
