"""Graded products of symmetric two-tensors over exterior and symmetric powers.

Elements of grade p are symmetric matrices over a grade-p representation
space; the product of ``alpha (x) beta`` and ``gamma (x) delta`` wedges
(resp. multiplies) the factors slotwise.  Three algebras are supported:

* ``"wedge"``: grades are exterior powers, the product extends the
  classical metric product of symmetric two-forms;
* ``"sym"``: grades are symmetric powers, with polynomial multiplication
  in each slot;
* ``"sym0"``: grades are traceless symmetric powers; the product is the
  ``"sym"`` product followed by harmonic projection of each slot, which
  is well defined because the trace terms form an ideal.

Products are computed through the eigen-dyad decomposition of each
factor, which keeps positive semidefiniteness manifest; the slots are
multiplied through ``multilinear.product_table``, the one place the
wedge sign and the ``x^l / sqrt(l!)`` normalization are written.  The
identity ``g^p = p! * Id`` on the grade-p space holds in all three
algebras and is available in closed form alongside the iterated product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multilinear as ml

GRADE_CUTOFF = 12

_ALGEBRAS = ("wedge", "sym", "sym0")


def space_for(algebra, n, p):
    if algebra == "wedge":
        return ml.build_exterior(n, p)
    if algebra == "sym":
        return ml.build_symmetric(n, p)
    if algebra == "sym0":
        return ml.build_traceless(n, p)
    raise ValueError(f"unknown algebra {algebra!r}; expected one of {_ALGEBRAS}")


@dataclass
class KNElement:
    """Symmetric matrix over the grade-p space of one of the algebras."""

    algebra: str
    n: int
    grade: int
    mat: np.ndarray

    def __post_init__(self):
        space = space_for(self.algebra, self.n, self.grade)
        m = np.asarray(self.mat, dtype=float)
        if m.shape != (space.dim, space.dim):
            raise ValueError(
                f"grade-{self.grade} {self.algebra} element needs shape "
                f"{(space.dim, space.dim)}, got {m.shape}"
            )
        self.mat = 0.5 * (m + m.T)

    @property
    def space(self):
        return space_for(self.algebra, self.n, self.grade)

    def __repr__(self):
        return f"KNElement({self.algebra}, n={self.n}, grade={self.grade})"


def g_element(algebra, n):
    """The metric as the grade-1 element (identity matrix on R^n)."""
    return KNElement(algebra, n, 1, np.eye(space_for(algebra, n, 1).dim))


def identity_element(algebra, n, p):
    """Identity matrix on the grade-p space, i.e. g^p / p!."""
    return KNElement(algebra, n, p, np.eye(space_for(algebra, n, p).dim))


def g_power(algebra, n, p):
    """Closed form of the p-th power of the metric: p! times the identity."""
    if p < 0:
        raise ValueError("need p >= 0")
    e = identity_element(algebra, n, p)
    return KNElement(algebra, n, p, math.factorial(p) * e.mat)


# ---------------------------------------------------------------------------
# slotwise products on coordinate vectors


def _pairwise_products(table, dim_out, Va, Vb):
    """Columns: slot products of every eigenvector pair, via a COO table."""
    out_idx, ia, ib, val = table
    U = np.zeros((dim_out, Va.shape[1], Vb.shape[1]))
    contrib = val[:, None, None] * Va[ia][:, :, None] * Vb[ib][:, None, :]
    np.add.at(U, out_idx, contrib)
    return U.reshape(dim_out, -1)


_DYAD_REL_TOL = 1e-13  # dyads at or below this share of max|eigenvalue| drop


def _eig_dyads(mat):
    lam, vec = np.linalg.eigh(mat)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    keep = np.abs(lam) > _DYAD_REL_TOL * scale
    return lam[keep], vec[:, keep]


def kn_product(a, b):
    """Product of two elements of one algebra via eigen-dyad slot products.

    Every pair of eigenvectors is multiplied slotwise through the
    algebra's table: wedged in ``"wedge"``, multiplied as polynomials in
    ``"sym"``.  ``"sym0"`` factors are lifted to the ambient symmetric
    powers by ``C^T`` and their products projected back by ``C``
    (``C = change_of_basis``), i.e. the product is taken in the quotient
    by the trace ideal.
    """
    if a.algebra != b.algebra:
        raise ValueError(
            f"factors from different algebras: {a.algebra!r}, {b.algebra!r}"
        )
    if a.n != b.n:
        raise ValueError("n mismatch")
    n, p = a.n, a.grade + b.grade
    if p > GRADE_CUTOFF:
        raise ValueError(f"product grade {p} exceeds cutoff {GRADE_CUTOFF}")
    if a.algebra == "wedge":
        if p > n:
            raise ValueError(f"grade {p} exceeds n={n} in the wedge algebra")
        kind, dim_out = "exterior", ml.dim_exterior(n, p)
    else:
        kind, dim_out = "symmetric", ml.dim_symmetric(n, p)
    table = ml.product_table(kind, n, a.grade, b.grade)
    la, Va = _eig_dyads(a.mat)
    lb, Vb = _eig_dyads(b.mat)
    if a.algebra == "sym0":
        Va = a.space.change_of_basis.T @ Va
        Vb = b.space.change_of_basis.T @ Vb
    U = _pairwise_products(table, dim_out, Va, Vb)
    if a.algebra == "sym0":
        U = space_for("sym0", n, p).change_of_basis @ U
    w = np.outer(la, lb).ravel()
    return KNElement(a.algebra, n, p, (U * w) @ U.T)


def iterated_g_power(algebra, n, p):
    """The p-fold product of the metric, computed by folding kn products.

    Cross-checks the closed form ``g_power``; grade 0 is the unit element.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    if p == 0:
        return identity_element(algebra, n, 0)
    acc = g_element(algebra, n)
    for _ in range(p - 1):
        acc = kn_product(acc, g_element(algebra, n))
    return acc
