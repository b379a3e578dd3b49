"""The workloads: their inputs, operations and checks.

A workload gives the operations of round ``r`` of a run; a run repeats
whole rounds.  Each operation has ``run()``, which is timed, and
``check(result)``, which is not: it returns True (passed) or False (failed
soundly) and raises ``checks.Incorrect`` on a wrong claim.  Inputs come from
the seed (and the round number) alone.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

import checks
from checks import Query
from inputs import exact_operator, fixture, pair_dim, selfcheck



class Op:
    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """``round_ops(r)``, the operations of round r, plus the code a cold
    set-up imports."""

    def __init__(self, setup_code, round_ops, cli=False):
        self.setup_code = setup_code
        self.round_ops = round_ops
        self.cli = cli


def _clear_basis_caches():
    """Every lru_cache of curvelab.multilinear, so bases are built cold."""
    from curvelab import multilinear
    caches = [v for v in vars(multilinear).values()
              if hasattr(v, "cache_clear") and hasattr(v, "cache_info")]

    def clear():
        for cached in caches:
            cached.cache_clear()
    return clear


def _certify_op(q):
    from curvelab import certify
    from curvelab.curvature import CurvatureOperator

    def run():
        return certify.certify_bound(CurvatureOperator(q.n, q.mat), q.k,
                                     direction=q.direction)

    return Op(q.label, run, lambda cert: checks.check_certificate(
        cert.to_dict(), q))


def _exact_queries(op, label, offsets, direction):
    """Queries at k = m + offset (ge on R) or k = -m - offset (le on -R)."""
    out = []
    for d in offsets:
        if direction == "ge":
            q = Query(op.n, op.mat, op.m + d, "ge", op.m,
                      f"{label} ge m{d:+g}")
        else:
            q = Query(op.n, -op.mat, -op.m - d, "le", -op.m,
                      f"{label} le -m{-d:+g}")
        out.append(q)
    return out


def _checked(ops, rng):
    for op in ops:
        selfcheck(op, rng)
    return ops


# (fixture, k, direction): the answer follows from the fixture's extremes
N4_FIXTURE_QUERIES = [
    ("identity", 0.5, "ge"), ("identity", 1.5, "ge"), ("identity", 1.5, "le"),
    ("identity", 0.5, "le"), ("s2xs2", 0.0, "ge"), ("s2xs2", 0.01, "ge"),
    ("s2xs2", 1.0, "le"), ("hodge-star", 0.0, "ge"), ("hodge-star", 0.0, "le"),
    ("hodge-star", 0.01, "ge"),
]


def certify_n4(seed):
    fixture_queries = []
    for name, k, direction in N4_FIXTURE_QUERIES:
        mat, lo, hi = fixture(name, 4)
        fixture_queries.append(Query(4, mat, k, direction,
                                     lo if direction == "ge" else hi,
                                     f"{name} {direction} {k:g}"))

    def round_ops(r):
        # A fresh operator each round, so a run averages the witness-search
        # cost (3-7 s, depending on the operator) over several operators.
        rng = np.random.default_rng([seed, 4, r])
        op = _checked([exact_operator(4, rng)], rng)[0]
        queries = []
        for direction in ("ge", "le"):
            queries += _exact_queries(op, "n4", (-1.0, -0.1, -1e-3), direction)
        queries += _exact_queries(op, "n4", (0.05,), ("ge", "le")[r % 2])
        return [_certify_op(q) for q in queries + fixture_queries]

    return Workload("import curvelab", round_ops)


# (kind, n, p): Harm^4 R^10 and Sym^4 R^10 share their ambient Sym^4 R^10
KTERM_SPACES = [("traceless", 10, 4), ("symmetric", 10, 4),
                ("symmetric", 8, 5), ("exterior", 10, 5), ("traceless", 12, 3)]


def _kterm_op(kind, n, p, mat, is_identity, label):
    from curvelab import multilinear, weitzenbock
    from curvelab.curvature import CurvatureOperator

    def run():
        space = getattr(multilinear, "build_" + kind)(n, p)
        K = weitzenbock.curvature_term(CurvatureOperator(n, mat), space)
        return K, K.eigenvalues()

    def check(result):
        K, spectrum = result
        checks.check_kterm(K.mat, spectrum, kind, n, p, mat, is_identity,
                           label, sym_defect=K.sym_defect)
        return True

    return Op(label, run, check)


def kterm_large(seed):
    rng = np.random.default_rng([seed, 10])
    ops = []
    for kind, n, p in KTERM_SPACES:
        seeded = _checked([exact_operator(n, rng) for _ in range(2)], rng)
        mats = [(np.eye(pair_dim(n)), True)] + [(o.mat, False) for o in seeded]
        for j, (mat, is_identity) in enumerate(mats):
            ops.append(_kterm_op(kind, n, p, mat, is_identity,
                                 f"{kind}({n},{p})[{j}]"))
    clear = _clear_basis_caches()

    def round_ops(r):
        clear()
        return ops

    return Workload("import curvelab", round_ops)


# ---------------------------------------------------------------------------
# one-shot CLI


def operator_json(n, mat):
    """The CLI's operator schema (docs/bases.md)."""
    return {"n": n, "basis": "lex-pairs", "matrix": mat.tolist(),
            "convention": "sec(X∧Y)=R(X∧Y,X∧Y)"}


class Cli:
    """Runs one CLI command in a fresh interpreter, traced or not."""

    def __init__(self, python, env, launcher, trace_dir):
        self.python = python
        self.env = env
        self.launcher = launcher
        self.trace_dir = trace_dir      # None: untraced
        self.calls = 0
        self.emitted = 0                # bytes of standard output

    def __call__(self, args):
        if self.trace_dir is None:
            argv = [self.python, "-m", "curvelab.cli", *args]
        else:
            self.calls += 1
            out = self.trace_dir / f"cli_{self.calls}.json"
            argv = [self.python, str(self.launcher), str(out), str(self.calls),
                    "--", *args]
        proc = subprocess.run(argv, capture_output=True, env=self.env,
                              timeout=170)
        self.emitted += len(proc.stdout)
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode, proc.stdout


def cli_oneshot(seed, cli, input_dir):
    rng = np.random.default_rng([seed, 1])
    cli_seed = int(rng.integers(0, 2**31))
    dec_op, kt_op = _checked([exact_operator(5, rng), exact_operator(6, rng)],
                             rng)
    paths = {}
    for key, op in (("decompose", dec_op), ("kterm", kt_op)):
        paths[key] = input_dir / f"{key}_operator.json"
        paths[key].write_text(json.dumps(operator_json(op.n, op.mat)))
    ops = []

    def add(label, args, check):
        """``check(rc, doc)`` on the exit code and the strict-JSON output."""
        def checked(result):
            rc, out = result
            return check(rc, checks.strict_json(out, label))
        ops.append(Op(label, lambda: cli(args), checked))

    def success(label, check):
        def checked(rc, doc):
            checks.check_exit(rc, 0, label)
            check(doc)
            return True
        return checked

    def certificate(q):
        """The exit code follows the verdict: 0 only when certified."""
        def checked(rc, doc):
            passed = checks.check_certificate(doc, q)
            checks.check_exit(rc, 0 if doc["verdict"] == "certified" else 1,
                              q.label)
            return passed
        return checked

    def kterm_check(doc):
        checks.check_kterm(doc["matrix"], doc["spectrum"], "traceless", 6, 3,
                           kt_op.mat, False, "kterm")
        checks.require(doc["lambda_min"] == min(doc["spectrum"]),
                       "kterm: lambda_min is not the least eigenvalue")

    add("decompose", ["decompose", str(paths["decompose"])],
        success("decompose",
                lambda doc: checks.check_decompose(doc, dec_op.mat,
                                                   "decompose")))
    add("kterm", ["kterm", str(paths["kterm"]), "--rep", "sym0", "--p", "3"],
        success("kterm", kterm_check))
    for suite, extra in (("thmB", ["--n", "4", "--pmax", "4"]),
                         ("integral", ["--n", "4"]),
                         ("lemmas", ["--pmax", "8"]),
                         ("gpowers", ["--n", "4"])):
        label = f"verify {suite}"
        add(label, ["verify", "--suite", suite, *extra, "--seed", str(cli_seed)],
            success(label, lambda doc, label=label: checks.check_verify(
                doc, label)))
    # identity n = 6 at k = 0.5 and RL n = 5 at k = -10 hold trivially
    # (R - k Id is positive semidefinite); see README for their failures
    for name, n, k in (("s2xs2", 4, 0.0), ("s2xs2", 4, 0.01), ("RL", 5, -0.9),
                       ("identity", 6, 0.5), ("RL", 5, -10.0)):
        mat, lo, _hi = fixture(name, n)
        q = Query(n, mat, k, "ge", lo, f"certify {name} n{n} {k:g}")
        add(q.label, ["certify", name, "--n", str(n), "--k", repr(k)],
            certificate(q))
    return Workload("import curvelab.cli", lambda r: ops, cli=True)


WORKLOADS = {
    "certify_n4": certify_n4,
    "kterm_large": kterm_large,
    "cli_oneshot": cli_oneshot,
}
