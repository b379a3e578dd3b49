"""Partition combinatorics, tensor-product coefficients, branching counts."""

import itertools
import math

import numpy as np
import pytest

from curvelab import littlewood as lw


# ---------------------------------------------------------------------------
# partitions


class Partition:
    """Young diagram of a partition, normalized by the program's
    ``_parts``: the reference shapes, hooks and dimensions below."""

    def __init__(self, parts=()):
        self.parts = lw._parts(parts)

    @property
    def size(self):
        return sum(self.parts)

    @property
    def length(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i] if i < len(self.parts) else 0

    def __eq__(self, other):
        return self.parts == Partition(other).parts

    def contains(self, other):
        """Containment of Young diagrams."""
        return all(self[i] >= other[i] for i in range(other.length))

    def conjugate(self):
        return Partition([sum(1 for p in self.parts if p > c)
                          for c in range(self[0])])

    def hook_lengths(self):
        conj = self.conjugate()
        return [
            [self[r] - c + conj[c] - r - 1 for c in range(self[r])]
            for r in range(self.length)
        ]

    def gl_dimension(self, n):
        """Dimension of the general-linear irreducible, hook-content formula."""
        if self.length > n:
            return 0
        num = den = 1
        for r, hooks in enumerate(self.hook_lengths()):
            for c, hook in enumerate(hooks):
                num *= n + c - r
                den *= hook
        assert num % den == 0, "hook-content product is not an integer"
        return num // den


def test_partition_validation():
    assert lw._parts((3, 1, 0)) == (3, 1)
    assert lw._parts(()) == ()
    assert Partition((3, 1, 0)).parts == (3, 1)
    assert Partition().parts == ()
    with pytest.raises(ValueError):
        lw._parts((1, 2))
    with pytest.raises(ValueError):
        lw._parts((2, -1))


def test_partition_conjugate_and_containment():
    lam = Partition((4, 2, 1))
    assert lam.conjugate().parts == (3, 2, 1, 1)
    assert lam.conjugate().conjugate() == lam
    assert lam.contains(Partition((2, 2)))
    assert not lam.contains(Partition((5,)))


def test_hook_lengths_by_hand():
    # shape (3,2): hooks are [4,3,1] / [2,1]
    assert Partition((3, 2)).hook_lengths() == [[4, 3, 1], [2, 1]]
    assert Partition((1, 1, 1)).hook_lengths() == [[3], [2], [1]]


def test_gl_dimensions():
    assert Partition((2, 1)).gl_dimension(3) == 8
    assert Partition((1, 1, 1, 1)).gl_dimension(3) == 0
    for n in (3, 4, 6):
        for p in range(1, 6):
            assert Partition((p,)).gl_dimension(n) == math.comb(
                n + p - 1, p)
        for k in range(1, n + 1):
            assert Partition((1,) * k).gl_dimension(n) == math.comb(n, k)
    # hand hook-content example: shape (2,1,1) at n=4 -> 120/8 = 15
    assert Partition((2, 1, 1)).gl_dimension(4) == 15


def test_partitions_of_enumeration():
    assert sorted(lw.partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    assert sorted(lw.even_partitions_of(4)) == [(2, 2), (4,)]
    assert lw.even_partitions_of(0) == [()]
    assert list(lw.even_partitions_of(3)) == []


# ---------------------------------------------------------------------------
# tensor-product coefficients


def _is_horizontal_strip(nu, lam):
    """nu/lam adds at most one box per column."""
    if not nu.contains(lam):
        return False
    return all(nu[i + 1] <= lam[i] for i in range(nu.length))


def test_known_coefficient_values():
    assert lw.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lw.lr_coefficient((1,), (1,), (2,)) == 1
    assert lw.lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lw.lr_coefficient((2,), (1, 1), (2, 1, 1)) == 1
    assert lw.lr_coefficient((2,), (1, 1), (3,)) == 0
    # size mismatch is simply zero
    assert lw.lr_coefficient((2,), (1,), (2,)) == 0


def test_pieri_rule_against_strip_predicate():
    lam = Partition((3, 2))
    for q in (1, 2, 3):
        for nu_t in lw.partitions_of(lam.size + q):
            nu = Partition(nu_t)
            expected = 1 if _is_horizontal_strip(nu, lam) else 0
            assert lw.lr_coefficient(lam, (q,), nu) == expected, (nu, q)
    # column version: (1^q) adds a vertical strip, i.e. the conjugate
    # diagrams differ by a horizontal strip
    lam = Partition((2, 1))
    for q in (1, 2):
        for nu_t in lw.partitions_of(lam.size + q):
            nu = Partition(nu_t)
            expected = 1 if _is_horizontal_strip(nu.conjugate(),
                                                 lam.conjugate()) else 0
            assert lw.lr_coefficient(lam, (1,) * q, nu) == expected, (nu, q)


def test_coefficient_symmetry():
    shapes = [Partition(s) for s in [(2,), (1, 1), (2, 1), (3, 1), (2, 2)]]
    for lam, mu in itertools.product(shapes, repeat=2):
        for nu_t in lw.partitions_of(lam.size + mu.size):
            assert lw.lr_coefficient(lam, mu, nu_t) == lw.lr_coefficient(
                mu, lam, nu_t)


def test_dimension_consistency_exact():
    # dim(V_lam) * dim(V_mu) = sum_nu c^nu dim(V_nu), exactly, at n = 8
    n = 8
    pairs = [((2, 1), (2, 1)), ((3,), (2, 2)), ((2, 2), (2, 2)),
             ((3, 1), (2, 1))]
    for lam_t, mu_t in pairs:
        lam, mu = Partition(lam_t), Partition(mu_t)
        total = 0
        for nu_t in lw.partitions_of(lam.size + mu.size):
            nu = Partition(nu_t)
            total += lw.lr_coefficient(lam, mu, nu) * nu.gl_dimension(n)
        assert total == lam.gl_dimension(n) * mu.gl_dimension(n)


def _schur_value(lam, xs):
    """Bialternant ratio of alternants, evaluated numerically."""
    n = len(xs)
    lam_full = [lam[i] for i in range(n)]
    num = np.array([[x ** (lam_full[j] + n - 1 - j) for j in range(n)]
                    for x in xs])
    den = np.array([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    return np.linalg.det(num) / np.linalg.det(den)


def test_product_expansion_against_schur_polynomials():
    # s_lam * s_mu = sum_nu c^nu s_nu as functions; check at random points
    rng = np.random.default_rng(7)
    cases = [((2, 1), (2,)), ((2, 2), (2, 1)), ((3, 1), (1, 1))]
    for lam_t, mu_t in cases:
        lam, mu = Partition(lam_t), Partition(mu_t)
        nvars = lam.size + mu.size  # no truncation at this many variables
        for _ in range(3):
            xs = rng.uniform(0.5, 1.5, size=nvars)
            lhs = _schur_value(lam, xs) * _schur_value(mu, xs)
            rhs = sum(
                lw.lr_coefficient(lam, mu, nu_t) *
                _schur_value(Partition(nu_t), xs)
                for nu_t in lw.partitions_of(lam.size + mu.size)
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# branching to the orthogonal labels


def test_restriction_single_row():
    # a single-row label occurs in S_(p) once per even gap, i.e. exactly
    # when p - q is even and nonnegative
    for p in range(7):
        for q in range(7):
            expected = 1 if (p >= q and (p - q) % 2 == 0) else 0
            assert lw.restriction_multiplicity((p,), (q,)) == expected


def test_restriction_hand_values():
    # classical decomposition of curvature-tensor shapes: [2,2]+[2]+[0]
    assert lw.restriction_multiplicity((2, 2), (2, 2)) == 1
    assert lw.restriction_multiplicity((2, 2), (2,)) == 1
    assert lw.restriction_multiplicity((2, 2), ()) == 1
    assert lw.restriction_multiplicity((2, 2), (1, 1)) == 0
    assert lw.restriction_multiplicity((2, 1), (1,)) == 1
    assert lw.restriction_multiplicity((1, 1, 1, 1), (1, 1, 1, 1)) == 1
    assert lw.restriction_multiplicity((1, 1, 1, 1), (1, 1)) == 0


# ---------------------------------------------------------------------------
# the two counting lemmas


def test_lemma_tables_all_orders():
    for p in range(2, 9):
        t = lw.verify_lemma_sym(p)
        assert t["passed"], (p, t["counts"])
        assert t["counts"] == {"U": 1, "L": 1, "W": 1, "W4": 0}
        w = lw.verify_lemma_wedge(p)
        assert w["passed"], (p, w["counts"])
        assert w["counts"] == {"U": 1, "L": 1, "W": 1, "W4": 1}


def test_lemma_tables_record_hypotheses():
    t = lw.verify_lemma_sym(3)
    assert "n >= 4" in t["hypotheses"]
    w = lw.verify_lemma_wedge(3)
    assert "n >= 4" in w["hypotheses"]
    assert t["kind"] == "sym" and t["passed"] is True


def test_lemma_rejects_small_order():
    with pytest.raises(ValueError):
        lw.verify_lemma_sym(1)
    with pytest.raises(ValueError):
        lw.verify_lemma_wedge(0)
