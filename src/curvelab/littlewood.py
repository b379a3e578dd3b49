"""Littlewood-Richardson numbers and stable branching multiplicities.

Coefficients are counted by direct enumeration of skew semistandard
tableaux whose reverse reading word is a lattice word; everything is
exact integer arithmetic.  The restriction multiplicity of an orthogonal
irreducible labelled by a partition inside a general-linear irreducible
is the classical sum of LR numbers over partitions with all parts even.

The two verification routines below expand the symmetric square of a
traceless symmetric power (resp. of an exterior power) as a virtual sum
of general-linear characters and count the net occurrences of the four
orthogonal labels behind the curvature-operator decomposition:

* the trivial label () for the scalar part,
* (2) for the traceless-Ricci part,
* (2, 2) for the Weyl-type part,
* (1, 1, 1, 1) for the four-form part.

Expected tables: (1, 1, 1, 0) in the traceless symmetric case for every
p >= 2, and (1, 1, 1, 1) in the exterior case.  The counts are those of
the stable range; each table records the hypotheses (n >= 4 and, in the
exterior case, 2 <= p <= n-2) under which they apply.
"""

from __future__ import annotations

from functools import lru_cache


def _parts(x):
    """The partition x as a tuple of its positive parts, weakly decreasing:
    zero parts are dropped, and a negative part or a rise is an error."""
    parts = tuple(int(v) for v in x if v != 0)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"not weakly decreasing: {parts}")
    if any(v < 0 for v in parts):
        raise ValueError(f"negative part: {parts}")
    return parts


@lru_cache(maxsize=1 << 14)
def _lr_cached(lam, mu, nu):
    """The LR number on partitions given as tuples of positive parts."""
    if (sum(lam) + sum(mu) != sum(nu) or len(lam) > len(nu)
            or any(a > b for a, b in zip(lam, nu))):
        return 0
    if not mu:
        return 1
    lam = lam + (0,) * (len(nu) - len(lam))
    # cells of the skew shape in reverse reading order: rows top to bottom,
    # each row right to left -- the order in which the lattice condition
    # can be enforced incrementally.
    cells = [(r, c) for r in range(len(nu))
             for c in range(nu[r] - 1, lam[r] - 1, -1)]
    k = len(mu)
    counts = [0] * (k + 1)
    fill = {}
    total = 0

    def rec(pos):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        r, c = cells[pos]
        right = fill.get((r, c + 1))
        above = fill.get((r - 1, c))
        lo_v = 1 if above is None else above + 1
        hi_v = k if right is None else right
        for v in range(lo_v, hi_v + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            fill[(r, c)] = v
            rec(pos + 1)
            del fill[(r, c)]
            counts[v] -= 1

    rec(0)
    return total


def lr_coefficient(lam, mu, nu):
    """Number of LR skew tableaux of shape nu/lam and content mu."""
    return _lr_cached(*map(_parts, (lam, mu, nu)))


def partitions_of(m, max_part=None):
    """All partitions of m (as tuples), largest part first."""
    if max_part is None:
        max_part = m
    if m == 0:
        return [()]
    out = []
    for first in range(min(m, max_part), 0, -1):
        for rest in partitions_of(m - first, first):
            out.append((first,) + rest)
    return out


def even_partitions_of(m):
    """Partitions of m with every part even."""
    if m % 2:
        return []
    return [tuple(2 * x for x in q) for q in partitions_of(m // 2)]


def restriction_multiplicity(nu, lbar):
    """Stable multiplicity of the orthogonal label lbar inside S_nu.

    Classical branching: sum over partitions delta with all even parts of
    the LR number for nu over (delta, lbar).
    """
    nu, lbar = _parts(nu), _parts(lbar)
    return sum(_lr_cached(delta, lbar, nu)
               for delta in even_partitions_of(sum(nu) - sum(lbar)))


TARGETS = {
    "U": (),
    "L": (2,),
    "W": (2, 2),
    "W4": (1, 1, 1, 1),
}


def sym_square_sym_contents(p):
    """GL contents of Sym^2(Sym^p): partitions (p+a, p-a), p+a even."""
    return [(p + a, p - a) for a in range(p + 1) if (p + a) % 2 == 0]


def tensor_sym_contents(p, q):
    """GL contents of Sym^p (x) Sym^q for p >= q (Pieri): (p+a, q-a)."""
    return [(p + a, q - a) for a in range(q + 1)]


def sym_square_wedge_contents(p):
    """GL contents of Sym^2(wedge^p): two-column shapes, even second column."""
    return [
        tuple([2] * (p - a) + [1] * (2 * a)) for a in range(0, p + 1, 2)
    ]


def _net_counts(signed_contents):
    counts = {name: 0 for name in TARGETS}
    for name, lbar in TARGETS.items():
        net = 0
        for sign, contents in signed_contents:
            for nu in contents:
                net += sign * restriction_multiplicity(nu, lbar)
        if net < 0:
            raise RuntimeError(
                f"negative net multiplicity {net} for target {name}: "
                "virtual-sum bookkeeping is inconsistent"
            )
        counts[name] = net
    return counts


def _lemma_table(kind, p, signed, expected, hypotheses):
    """The JSON document of one lemma: net counts against the expected."""
    counts = _net_counts(signed)
    return {"kind": kind, "p": p, "counts": counts, "expected": expected,
            "passed": counts == expected, "hypotheses": hypotheses}


def verify_lemma_sym(p):
    """Net occurrences of the four labels in Sym^2 of the traceless power.

    Uses the virtual expansion
    Sym^2(Harm^p) = Sym^2(Sym^p) - Sym^2(Sym^{p-2}) - Sym^p (x) Sym^{p-2}
                    + Sym^{p-2} (x) Sym^{p-2}
    and expects exactly one occurrence each of (), (2), (2,2) and none of
    (1,1,1,1), for every p >= 2 in the stable range.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    signed = [
        (+1, sym_square_sym_contents(p)),
        (-1, sym_square_sym_contents(p - 2)),
        (-1, tensor_sym_contents(p, p - 2)),
        (+1, tensor_sym_contents(p - 2, p - 2)),
    ]
    return _lemma_table("sym", p, signed, {"U": 1, "L": 1, "W": 1, "W4": 0},
                        "stable range; counts apply for n >= 4")


def verify_lemma_wedge(p):
    """Net occurrences of the four labels in Sym^2 of the exterior power.

    Expects exactly one occurrence of each label, for 2 <= p <= n-2 in
    the stable range.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    signed = [(+1, sym_square_wedge_contents(p))]
    return _lemma_table(
        "wedge", p, signed, {"U": 1, "L": 1, "W": 1, "W4": 1},
        "stable range; counts apply for n >= 4 and 2 <= p <= n-2")
