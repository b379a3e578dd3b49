"""Command-line surface: decompose, kterm, verify, certify.

Operator JSON schema (input and output):

    {"n": <int>, "basis": "lex-pairs", "matrix": [[... N x N ...]],
     "convention": "sec(X∧Y)=R(X∧Y,X∧Y)"}

with N = n(n-1)/2 and rows/columns indexed by the lexicographically
ordered pairs (i < j).  The ``basis`` and ``convention`` strings are
mandatory and validated so that inputs written under a different
convention fail loudly instead of silently producing wrong numbers.

Inputs are a file path, ``-`` for stdin, or a named fixture keyword
(``identity`` / ``scal-part`` / ``RU``, ``hodge-star``, ``s2xs2``,
``traceless-ricci`` / ``RL``, ``weyl-type`` / ``RW``, ``four-form`` /
``RW4``), with ``--n`` fixing the dimension for fixtures.  ``--seed``
is an option of ``verify`` only, the one command with a randomized step.

Exit codes: 0 success, 1 verification failure (a verify suite with a
residual beyond tolerance, or a certify query that does not certify the
requested bound), 2 input error, 3 internal error (``{"error": ...}`` on
stdout, no traceback).
Numbers serialize through Python's shortest round-trip decimal repr, so
every emitted matrix re-ingests to bit-identical doubles.  Output is
accumulated fully and written once (atomically when ``--out`` is used).

Start-up pays only for the command that runs: this module loads no other
curvelab module and no NumPy at import, and each subcommand imports the
modules it calls when it runs (``verify --suite lemmas`` loads
``littlewood`` alone, ``decompose`` only ``curvature`` and ``fixtures``).
So ``--help``, a usage error and ``verify --suite lemmas`` run without
NumPy.
"""

import argparse
import json
import math
import os
import sys

from . import DEFAULT_SEED

BASIS_TAG = "lex-pairs"
CONVENTION_TAG = "sec(X∧Y)=R(X∧Y,X∧Y)"
ASYMMETRY_WARN = 1e-6
# Largest magnitude accepted for a matrix entry or a bound k.  Nothing
# the commands compute is more than quadratic in the entries, times
# factors polynomial in n, so this leaves about 10^108 of headroom below
# overflow.
MAX_MAGNITUDE = 1e100
# Largest representation dimension kterm will materialize: the dense
# output matrix alone is dim^2 doubles, so refuse early and point the
# caller at the library API instead of exhausting memory.  verify bounds
# its largest array by the same dim^2.
MAX_KTERM_DIM = 10_000


class InputError(Exception):
    """Malformed operator input; message points at the offending field."""


def operator_to_json(R):
    return {
        "n": R.n,
        "basis": BASIS_TAG,
        "matrix": [[float(v) for v in row] for row in R.mat],
        "convention": CONVENTION_TAG,
    }


def operator_from_json(doc):
    from .curvature import CurvatureOperator

    if not isinstance(doc, dict):
        raise InputError("top level: expected a JSON object")
    for key in ("n", "basis", "matrix", "convention"):
        if key not in doc:
            raise InputError(f"field '{key}': missing (mandatory)")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 3:
        raise InputError(f"field 'n': expected an integer >= 3, got {n!r}")
    if doc["basis"] != BASIS_TAG:
        raise InputError(
            f"field 'basis': expected {BASIS_TAG!r}, got {doc['basis']!r}"
        )
    if doc["convention"] != CONVENTION_TAG:
        raise InputError(
            f"field 'convention': expected {CONVENTION_TAG!r}, "
            f"got {doc['convention']!r}"
        )
    N = n * (n - 1) // 2
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or len(matrix) != N:
        got = len(matrix) if isinstance(matrix, list) else type(matrix).__name__
        raise InputError(f"field 'matrix': expected {N} rows for n={n}, got {got}")
    rows = []
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != N:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise InputError(
                f"field 'matrix[{r}]': expected {N} entries, got {got}"
            )
        vals = []
        for c, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise InputError(
                    f"field 'matrix[{r}][{c}]': expected a number, got {v!r}"
                )
            try:
                v = float(v)
            except OverflowError:
                v = math.inf
            if not abs(v) <= MAX_MAGNITUDE:
                raise InputError(
                    f"field 'matrix[{r}][{c}]': expected a finite number of "
                    f"magnitude at most {MAX_MAGNITUDE:g}, got {v!r}"
                )
            vals.append(v)
        rows.append(vals)
    return CurvatureOperator(n, rows)


def load_operator(source, n):
    """Resolve a CLI operator argument: fixture keyword, '-', or path."""
    from .fixtures import ALIASES, FIXTURES, fixture_operator

    if source in FIXTURES or source in ALIASES:
        return fixture_operator(source, n)
    if source == "-":
        text = sys.stdin.read()
    else:
        if not os.path.exists(source):
            raise InputError(
                f"input '{source}': not a file and not a fixture keyword "
                f"({', '.join(sorted(FIXTURES) + sorted(ALIASES))})"
            )
        with open(source) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"input: invalid JSON ({exc})") from None
    return operator_from_json(doc)


def emit(doc, out_path):
    text = json.dumps(doc, allow_nan=False)
    if out_path is None:
        sys.stdout.write(text + "\n")
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _maybe_warn_asymmetry(doc, R):
    if R.asymmetry > ASYMMETRY_WARN:
        doc["warning"] = (
            f"input matrix asymmetry {R.asymmetry:.3e} exceeds "
            f"{ASYMMETRY_WARN}; symmetrized before use"
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args):
    import numpy as np

    from .curvature import decompose

    R = load_operator(args.input, args.n)
    dec = decompose(R)
    doc = {
        "n": R.n,
        "scal": dec.scal,
        "ricci": [[float(v) for v in row] for row in dec.ric],
        "parts": {},
        "reconstruction_residual": dec.reconstruction_residual,
        "orthogonality_residual": dec.orthogonality_residual,
    }
    for name in ("U", "L", "W", "W4"):
        doc["parts"][name] = operator_to_json(dec.operator(name))
        doc["parts"][name + "_norm"] = float(np.linalg.norm(dec.part(name)))
    if dec.degraded_n3:
        doc["note"] = (
            "n = 3: the conformal and four-form parts vanish identically"
        )
    _maybe_warn_asymmetry(doc, R)
    emit(doc, args.out)
    return 0


def _check_build_dimension(rep, n, p):
    """Refuse a build whose largest basis exceeds ``MAX_KTERM_DIM``.

    The traceless space is carved out of the full symmetric power, so its
    build cost is governed by the ambient symmetric dimension, not by the
    (smaller) harmonic dimension.  Nothing is built here.
    """
    from . import multilinear as ml

    if p < 0:
        raise InputError(f"degree {p} (rep={rep}): expected an integer >= 0")
    dim = ml.dim_exterior(n, p) if rep == "wedge" else ml.dim_symmetric(n, p)
    if dim > MAX_KTERM_DIM:
        raise InputError(
            f"space of dimension {dim} exceeds the CLI limit "
            f"{MAX_KTERM_DIM} (n={n}, rep={rep}, p={p}); "
            f"use the library API for spaces this large"
        )


def cmd_kterm(args):
    from . import knalgebra as kn
    from . import weitzenbock as wz

    R = load_operator(args.input, args.n)
    _check_build_dimension(args.rep, R.n, args.p)
    space = kn.space_for(args.rep, R.n, args.p)
    K = wz.curvature_term(R, space)
    # on Sym^p one eigensolve per tower block: the spectrum is their union
    bs = wz.block_structure(R, K) if args.rep == "sym" else None
    spectrum = (K.eigenvalues() if bs is None else bs.spectrum).tolist()
    doc = {
        "n": R.n,
        "rep": args.rep,
        "p": args.p,
        "dim": space.dim,
        "matrix": K.mat.tolist(),
        "spectrum": spectrum,                           # ascending
        "lambda_min": spectrum[0],
    }
    if bs is not None:
        doc["blocks"] = {
            "degrees": bs.degrees,
            "dims": bs.block_dims,
            "offdiag_max": bs.offdiag_max,
            "spectra": {str(d): bs.spectra[d].tolist() for d in bs.degrees},
        }
    _maybe_warn_asymmetry(doc, R)
    emit(doc, args.out)
    return 0


def cmd_verify(args):
    if args.pmax < 2:
        # every suite starts at degree 2: below it, nothing would be checked
        raise InputError(f"--pmax: expected an integer >= 2, got {args.pmax}")
    if args.trials < 1:
        # with no trial, thmB and integral would check nothing and pass
        raise InputError(f"--trials: expected an integer >= 1, got {args.trials}")
    if args.n < 3 and args.suite != "lemmas":
        # curvature operators, and so every suite that reads --n, need n >= 3
        raise InputError(f"--n: expected an integer >= 3 for suite "
                         f"{args.suite}, got {args.n}")
    if args.suite in ("thmB", "integral"):
        # both assemble K(R) on Harm^p up to p = pmax
        _check_build_dimension("sym0", args.n, args.pmax)
    elif args.suite == "gpowers":
        # its largest array, the product map Sym^(p-1) x R^n -> Sym^p at
        # the top degree, may not outgrow the largest dense K of kterm
        from .multilinear import dim_symmetric

        p = min(args.pmax, 4)
        size = dim_symmetric(args.n, p - 1) * args.n * dim_symmetric(args.n, p)
        if size > MAX_KTERM_DIM ** 2:
            raise InputError(f"product map of {size} entries exceeds the CLI "
                             f"limit {MAX_KTERM_DIM ** 2} (n={args.n}, p={p})")
    doc = {"suite": args.suite, "seed": args.seed}
    ok = True
    if args.suite == "thmB":
        from .closedform import verify_thmB

        report = verify_thmB(
            n_values=(args.n,), p_values=tuple(range(2, args.pmax + 1)),
            trials=args.trials, seed=args.seed,
        )
        ok = report["passed"]
        doc.update(report)
    elif args.suite == "integral":
        import numpy as np

        from .curvature import random_operator
        from .spherical import verify_integral_formula

        rng = np.random.default_rng(args.seed)
        rows = []
        worst = 0.0
        for p in range(2, args.pmax + 1):
            R = random_operator(args.n, rng)
            rep = verify_integral_formula(
                R, p, trials=args.trials, seed=args.seed + p,
            )
            worst = max(worst, rep["worst"])
            ok = ok and rep["passed"]
            rows.append({"p": p, "worst_rel": rep["worst"],
                         "passed": rep["passed"], "c_constant": rep["c"]})
        doc.update({"n": args.n, "rows": rows, "worst_rel": worst,
                    "tol": rep["tol"], "passed": ok})
    elif args.suite == "lemmas":
        from .littlewood import verify_lemma_sym, verify_lemma_wedge

        rows = []
        for p in range(2, args.pmax + 1):
            ts = verify_lemma_sym(p)
            tw = verify_lemma_wedge(p)
            ok = ok and ts["passed"] and tw["passed"]
            rows.append({"p": p, "sym": ts, "wedge": tw})
        doc.update({"rows": rows, "passed": ok})
    elif args.suite == "gpowers":
        import numpy as np

        from . import knalgebra as kn

        rows = []
        worst = 0.0
        tol = 1e-10
        for algebra in ("wedge", "sym", "sym0"):
            # g^p = p! Id on the wedge algebra exists only for p <= n
            top = min(args.pmax, 4, args.n if algebra == "wedge" else 4)
            for p in range(2, top + 1):
                it = kn.iterated_g_power(algebra, args.n, p)
                expect = kn.g_power(algebra, args.n, p)
                res = float(np.abs(it.mat - expect.mat).max())
                worst = max(worst, res)
                ok = ok and res <= tol
                rows.append({"algebra": algebra, "p": p, "residual": res})
        doc.update({"n": args.n, "rows": rows, "worst": worst,
                    "tol": tol, "passed": ok})
    doc["passed"] = ok
    emit(doc, args.out)
    return 0 if ok else 1


def cmd_certify(args):
    if not abs(args.k) <= MAX_MAGNITUDE:
        raise InputError(f"--k: expected a finite number of magnitude at "
                         f"most {MAX_MAGNITUDE:g}, got {args.k!r}")
    from .certify import certify_bound

    R = load_operator(args.input, args.n)
    cert = certify_bound(R, args.k, direction=args.direction,
                         strict=args.strict)
    doc = cert.to_dict()
    _maybe_warn_asymmetry(doc, R)
    emit(doc, args.out)
    return 0 if cert.verdict == "certified" else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvelab",
        description=(
            "Curvature-operator toolkit: irreducible decomposition, "
            "curvature terms on tensor representations, identity "
            "verification suites, and sectional-curvature bound "
            "certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True):
        if with_input:
            p.add_argument(
                "input",
                help="operator JSON path, '-' for stdin, or fixture keyword",
            )
        p.add_argument("--n", type=int, default=4,
                       help="dimension for fixture inputs (default 4)")
        p.add_argument("--out", default=None,
                       help="write JSON here (atomic) instead of stdout")

    p_dec = sub.add_parser("decompose",
                           help="split an operator into its four parts")
    add_common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_kt = sub.add_parser("kterm",
                          help="curvature term on a representation")
    add_common(p_kt)
    p_kt.add_argument("--rep", choices=("wedge", "sym", "sym0"),
                      required=True, help="representation family")
    p_kt.add_argument("--p", type=int, required=True, help="degree")
    p_kt.set_defaults(func=cmd_kterm)

    p_ver = sub.add_parser("verify", help="run an identity suite")
    add_common(p_ver, with_input=False)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the random trials")
    p_ver.add_argument("--suite", required=True,
                       choices=("thmB", "integral", "lemmas", "gpowers"))
    p_ver.add_argument("--pmax", type=int, default=4,
                       help="largest degree exercised (default 4)")
    p_ver.add_argument("--trials", type=int, default=10,
                       help="random trials per case (default 10)")
    p_ver.set_defaults(func=cmd_verify)

    p_cert = sub.add_parser("certify",
                            help="decide a sectional-curvature bound")
    add_common(p_cert)
    p_cert.add_argument("--k", type=float, required=True,
                        help="the bound to certify")
    p_cert.add_argument("--direction", choices=("ge", "le"), default="ge",
                        help="bound direction (default: sec >= k)")
    p_cert.add_argument("--strict", action="store_true",
                        help="require strict inequality")
    p_cert.set_defaults(func=cmd_certify)
    return parser


def _attach_k_values(argv):
    """``--k VALUE`` as ``--k=VALUE``: argparse takes a token such as
    ``-1e-3`` for an unknown option rather than for the value of --k."""
    out = []
    for arg in argv:
        if out and out[-1] == "--k":
            out[-1] = f"--k={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(
        _attach_k_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except Exception as exc:
        error = exc
    # numpy's LinAlgError is a ValueError, but not bad input; numpy cannot
    # have raised it unless a command loaded it
    np = sys.modules.get("numpy")
    linalg = np is not None and isinstance(error, np.linalg.LinAlgError)
    if isinstance(error, (InputError, ValueError)) and not linalg:
        print(f"input error: {error}", file=sys.stderr)
        return 2
    print(json.dumps({"error": f"{type(error).__name__}: {error}"}))
    return 3


if __name__ == "__main__":
    sys.exit(main())
