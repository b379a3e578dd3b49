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

The product of A and B is the congruence ``P (A (x) B) P^T``, with P the
slotwise product map listed by ``multilinear.product_table``, the one
place the wedge sign and the ``x^l / sqrt(l!)`` normalization are
written; as a congruence of A (x) B it keeps positive semidefiniteness
manifest.  The identity ``g^p = p! * Id`` on the grade-p space holds in
all three algebras and is available in closed form alongside the
iterated product.
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


def identity_element(algebra, n, p):
    """Identity matrix on the grade-p space, i.e. g^p / p!."""
    return KNElement(algebra, n, p, np.eye(space_for(algebra, n, p).dim))


def g_power(algebra, n, p):
    """Closed form of the p-th power of the metric: p! times the identity."""
    if p < 0:
        raise ValueError("need p >= 0")
    e = identity_element(algebra, n, p)
    return KNElement(algebra, n, p, math.factorial(p) * e.mat)


def kn_product(a, b):
    """Product of two elements of one algebra: ``P (A (x) B) P^T``.

    P multiplies basis vectors slotwise through the algebra's table
    (``multilinear.product_congruence``): wedged in ``"wedge"``,
    multiplied as polynomials in ``"sym"``.  ``"sym0"`` factors are
    lifted to the ambient symmetric powers by ``C^T . C`` and their
    product projected back by ``C . C^T`` (``C = change_of_basis``), i.e.
    the product is taken in the quotient by the trace ideal.
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
    if a.algebra == "wedge" and p > n:
        raise ValueError(f"grade {p} exceeds n={n} in the wedge algebra")
    kind = "exterior" if a.algebra == "wedge" else "symmetric"
    A, B = a.mat, b.mat
    if a.algebra == "sym0":
        Ca, Cb = a.space.change_of_basis, b.space.change_of_basis
        A, B = Ca.T @ A @ Ca, Cb.T @ B @ Cb
    K = ml.product_congruence(kind, n, a.grade, b.grade, A, B)
    if a.algebra == "sym0":
        C = space_for("sym0", n, p).change_of_basis
        K = C @ K @ C.T
    return KNElement(a.algebra, n, p, K)


def iterated_g_power(algebra, n, p):
    """The p-fold product of the metric, computed by folding kn products.

    Cross-checks the closed form ``g_power``; grade 0 is the unit element.
    """
    if p < 0:
        raise ValueError("need p >= 0")
    if p == 0:
        return identity_element(algebra, n, 0)
    acc = g = identity_element(algebra, n, 1)   # the metric, grade 1
    for _ in range(p - 1):
        acc = kn_product(acc, g)
    return acc
