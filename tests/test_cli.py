"""Command-line behavior: schemas, exit codes, atomic output, fixtures."""

import io
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import curvelab
from curvelab import certify, cli
from curvelab import curvature as cv
from curvelab.fixtures import fixture_operator

from conftest import random_operator


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# operator JSON round-trip


def test_round_trip_is_bit_identical(rng):
    R = random_operator(5, rng)
    doc = cli.operator_to_json(R)
    text = json.dumps(doc)
    back = cli.operator_from_json(json.loads(text))
    assert np.array_equal(back.mat, R.mat)
    assert back.n == 5


def test_schema_validation_messages():
    good = cli.operator_to_json(fixture_operator("identity", 4))

    doc = dict(good)
    del doc["basis"]
    with pytest.raises(cli.InputError, match="field 'basis'"):
        cli.operator_from_json(doc)

    doc = dict(good, basis="rows-first")
    with pytest.raises(cli.InputError, match="field 'basis'"):
        cli.operator_from_json(doc)

    doc = dict(good, convention="sec=K")
    with pytest.raises(cli.InputError, match="field 'convention'"):
        cli.operator_from_json(doc)

    doc = dict(good, n=4.0)
    with pytest.raises(cli.InputError, match="field 'n'"):
        cli.operator_from_json(doc)

    doc = dict(good, n=True)
    with pytest.raises(cli.InputError, match="field 'n'"):
        cli.operator_from_json(doc)

    doc = dict(good, matrix=good["matrix"][:5])
    with pytest.raises(cli.InputError, match="expected 6 rows"):
        cli.operator_from_json(doc)

    doc = dict(good, matrix=[row[:] for row in good["matrix"]])
    doc["matrix"][2][3] = "x"
    with pytest.raises(cli.InputError, match=r"matrix\[2\]\[3\]"):
        cli.operator_from_json(doc)

    doc["matrix"][2][3] = True
    with pytest.raises(cli.InputError, match=r"matrix\[2\]\[3\]"):
        cli.operator_from_json(doc)

    with pytest.raises(cli.InputError, match="top level"):
        cli.operator_from_json([1, 2, 3])


# ---------------------------------------------------------------------------
# decompose


def test_decompose_identity(capsys):
    doc = run_json(capsys, "decompose", "identity", "--n", "4")
    assert doc["n"] == 4
    assert doc["scal"] == pytest.approx(12.0, abs=1e-12)
    assert doc["parts"]["U_norm"] > 1.0
    for name in ("L_norm", "W_norm", "W4_norm"):
        assert doc["parts"][name] == pytest.approx(0.0, abs=1e-12)
    assert doc["reconstruction_residual"] < 1e-12
    assert doc["orthogonality_residual"] < 1e-12
    # each part is itself a full operator document
    part = doc["parts"]["U"]
    assert part["basis"] == "lex-pairs"
    assert len(part["matrix"]) == 6
    assert np.allclose(np.array(doc["ricci"]), 3.0 * np.eye(4))


def test_decompose_star_is_pure_top_part(capsys):
    doc = run_json(capsys, "decompose", "hodge-star", "--n", "4")
    assert doc["parts"]["W4_norm"] > 1.0
    for name in ("U_norm", "L_norm", "W_norm"):
        assert doc["parts"][name] == pytest.approx(0.0, abs=1e-12)


def test_decompose_three_dimensions_notes_degeneracy(capsys):
    doc = run_json(capsys, "decompose", "identity", "--n", "3")
    assert "note" in doc
    assert doc["parts"]["W_norm"] == pytest.approx(0.0, abs=1e-12)
    assert doc["parts"]["W4_norm"] == pytest.approx(0.0, abs=1e-12)


def test_decompose_round_trips_parts_bitwise(capsys, tmp_path, rng):
    R = random_operator(4, rng)
    src = tmp_path / "op.json"
    src.write_text(json.dumps(cli.operator_to_json(R)))
    out = tmp_path / "dec.json"
    code, _, err = run(capsys, "decompose", str(src), "--out", str(out))
    assert code == 0, err
    doc = json.loads(out.read_text())
    dec = cv.decompose(R)
    for name in ("U", "L", "W", "W4"):
        emitted = np.array(doc["parts"][name]["matrix"])
        assert np.array_equal(emitted, dec.part(name))
    # no leftover temporary files from the atomic write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dec.json", "op.json"]


# ---------------------------------------------------------------------------
# input errors exit with code 2 and a pointed message


def test_missing_file_lists_fixture_keywords(capsys):
    code, _, err = run(capsys, "decompose", "/no/such/file.json")
    assert code == 2
    assert "input error" in err
    assert "identity" in err and "RL" in err


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def test_wrong_matrix_size_exits_two(capsys, tmp_path):
    doc = cli.operator_to_json(fixture_operator("identity", 4))
    doc["n"] = 5
    bad = tmp_path / "size.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 2
    assert "expected 10 rows for n=5, got 6" in err


def test_non_finite_entry_exits_two(capsys, tmp_path):
    text = json.dumps(cli.operator_to_json(fixture_operator("identity", 4)))
    bad = tmp_path / "nan.json"
    bad.write_text(text.replace("1.0", "NaN", 1))
    code, out, err = run(capsys, "decompose", str(bad))
    assert code == 2
    assert out == ""
    assert "matrix[0][0]" in err and "finite" in err


def test_certify_non_finite_bound_exits_two(capsys):
    code, out, err = run(capsys, "certify", "identity", "--k", "nan")
    assert code == 2
    assert out == ""
    assert "--k" in err


@pytest.mark.parametrize("command", [
    ("decompose",), ("kterm", "--rep", "wedge", "--p", "2"),
    ("certify", "--k", "0"),
])
def test_entries_beyond_the_magnitude_bound_exit_two(capsys, tmp_path,
                                                     command):
    doc = cli.operator_to_json(fixture_operator("s2xs2", 4))
    path = tmp_path / "op.json"
    for entry in (1.5e308, 2.0 * cli.MAX_MAGNITUDE):
        doc["matrix"][0][0] = entry
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert code == 2
        assert out == ""
        assert "matrix[0][0]" in err and f"{cli.MAX_MAGNITUDE:g}" in err
    # at the bound every command runs and emits finite numbers
    signs = np.sign(random_operator(4, np.random.default_rng(3)).mat)
    doc["matrix"] = (cli.MAX_MAGNITUDE * signs).tolist()
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, command[0], str(path), *command[1:])
    assert code in (0, 1)
    json.loads(out, parse_constant=lambda name: pytest.fail(name))


def test_certify_bound_beyond_the_magnitude_bound_exits_two(capsys):
    for k in ("1e308", "-1e101"):
        code, out, err = run(capsys, "certify", "s2xs2", "--n", "4",
                             "--k", k)
        assert code == 2
        assert out == ""
        assert "--k" in err and f"{cli.MAX_MAGNITUDE:g}" in err
    code, out, _ = run(capsys, "certify", "s2xs2", "--n", "4",
                       "--k", "-1e100")
    assert code == 0 and json.loads(out)["verdict"] == "certified"


def test_certify_takes_negative_bounds_in_any_float_syntax(capsys):
    outs = [run(capsys, "certify", "s2xs2", "--n", "4", *k)
            for k in (("--k", "-1e-3"), ("--k", "-0.001"), ("--k=-1e-3",),
                      ("--k", "-1E-3"))]
    assert outs[0][0] == 0
    assert json.loads(outs[0][1])["k"] == -0.001
    assert all(out == outs[0] for out in outs)
    with pytest.raises(SystemExit) as exc:      # argparse: usage error
        cli.main(["certify", "s2xs2", "--n", "4", "--k"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


def test_verify_oversized_suites_exit_two_before_building(capsys,
                                                          monkeypatch):
    # Sym^40 R^4 has dimension 12341, Sym^2 R^200 has 20100; the gpowers
    # map Sym^3 x R^n -> Sym^4 has C(n+2, 3) n C(n+3, 4) entries, and
    # n = 17 is the last n within 10^4 squared
    from curvelab import multilinear as ml

    def refuse(*args):
        raise AssertionError("a basis was built")
    for kind in ("exterior", "symmetric", "traceless"):
        monkeypatch.setattr(ml, "build_" + kind, refuse)
    for argv, what in (
            (("integral", "--n", "4", "--pmax", "40"),
             "space of dimension 12341"),
            (("thmB", "--n", "200", "--pmax", "2"),
             "space of dimension 20100"),
            (("gpowers", "--n", "40"),
             f"product map of {11480 * 40 * 123410} entries"),
            (("gpowers", "--n", "18"),
             f"product map of {1140 * 18 * 5985} entries")):
        code, out, err = run(capsys, "verify", "--suite", *argv)
        assert code == 2
        assert out == ""
        assert f"{what} exceeds the CLI limit" in err
    # n = 17 passes the check and goes on to build (refused here: exit 3)
    code, out, _ = run(capsys, "verify", "--suite", "gpowers", "--n", "17")
    assert code == 3 and "a basis was built" in json.loads(out)["error"]


def test_kterm_oversized_space_exits_two(capsys):
    code, _, err = run(capsys, "kterm", "identity", "--n", "4",
                       "--rep", "sym0", "--p", "99")
    assert code == 2
    assert "exceeds the CLI limit" in err


def test_kterm_invalid_degree_exits_two(capsys):
    code, _, err = run(capsys, "kterm", "identity", "--rep", "wedge",
                       "--p", "9", "--n", "4")
    assert code == 2
    assert "input error" in err


# ---------------------------------------------------------------------------
# kterm


def test_kterm_vectors_reproduce_ricci(capsys):
    doc = run_json(capsys, "kterm", "RL", "--n", "5", "--rep", "wedge",
                   "--p", "1")
    R = fixture_operator("RL", 5)
    assert doc["dim"] == 5
    assert np.allclose(np.array(doc["matrix"]), cv.ricci(R), atol=1e-12)
    assert doc["lambda_min"] == pytest.approx(-3.0, abs=1e-10)
    assert doc["spectrum"] == sorted(doc["spectrum"])


def test_kterm_star_annihilated_on_traceless_powers(capsys):
    doc = run_json(capsys, "kterm", "hodge-star", "--n", "4", "--rep", "sym0",
                   "--p", "2")
    assert np.allclose(np.array(doc["matrix"]), 0.0, atol=1e-10)
    assert "blocks" not in doc


def test_kterm_symmetric_blocks(capsys):
    doc = run_json(capsys, "kterm", "identity", "--n", "4", "--rep", "sym",
                   "--p", "3")
    blocks = doc["blocks"]
    assert blocks["degrees"] == [3, 1]
    assert blocks["dims"] == [16, 4]
    assert blocks["offdiag_max"] < 1e-9
    # round curvature acts as the Casimir: p (p + n - 2) on each block
    assert np.allclose(blocks["spectra"]["3"], 15.0, atol=1e-9)
    assert np.allclose(blocks["spectra"]["1"], 3.0, atol=1e-9)


def test_kterm_emits_the_matrix_and_an_ascending_spectrum(capsys):
    # the document's lists are K's own floats, and eigvalsh's order
    from curvelab import knalgebra as kn
    from curvelab import weitzenbock as wz
    doc = run_json(capsys, "kterm", "s2xs2", "--n", "4", "--rep", "sym",
                   "--p", "2")
    K = wz.curvature_term(fixture_operator("s2xs2", 4),
                          kn.space_for("sym", 4, 2))
    assert doc["matrix"] == K.mat.tolist()
    assert doc["spectrum"] == sorted(doc["spectrum"])
    assert doc["lambda_min"] == doc["spectrum"][0]
    for spectrum in doc["blocks"]["spectra"].values():
        assert spectrum == sorted(spectrum)


def test_kterm_sym_assembles_the_ambient_power_once(capsys, monkeypatch):
    # the block check reuses the reported K(R, Sym^p); only the lower
    # tower degrees are assembled again
    from curvelab import weitzenbock as wz
    assemble, spaces = wz._assemble, []

    def counted(Rmat, space):
        spaces.append((space.kind, space.p))
        return assemble(Rmat, space)

    monkeypatch.setattr(wz, "_assemble", counted)
    doc = run_json(capsys, "kterm", "RL", "--n", "5", "--rep", "sym",
                   "--p", "4")
    assert doc["blocks"]["degrees"] == [4, 2, 0]
    assert spaces.count(("symmetric", 4)) == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_thmB_suite(capsys):
    doc = run_json(capsys, "verify", "--suite", "thmB", "--n", "4",
                   "--pmax", "3", "--trials", "2")
    assert doc["passed"] is True
    assert doc["suite"] == "thmB"


def test_verify_integral_suite(capsys):
    doc = run_json(capsys, "verify", "--suite", "integral", "--n", "3",
                   "--pmax", "2", "--trials", "3")
    assert doc["passed"] is True
    assert doc["rows"][0]["c_constant"] > 0


def test_verify_lemmas_suite(capsys):
    doc = run_json(capsys, "verify", "--suite", "lemmas", "--pmax", "5")
    assert doc["passed"] is True
    assert [row["p"] for row in doc["rows"]] == [2, 3, 4, 5]


def test_verify_gpowers_suite(capsys):
    doc = run_json(capsys, "verify", "--suite", "gpowers", "--n", "4",
                   "--pmax", "4")
    assert doc["passed"] is True
    assert doc["worst"] <= 1e-10


def test_verify_gpowers_caps_wedge_rows_at_n(capsys):
    # g^p = p! Id holds on the wedge algebra for p <= n only
    doc = run_json(capsys, "verify", "--suite", "gpowers", "--n", "3")
    assert doc["passed"] is True
    wedge = [row["p"] for row in doc["rows"] if row["algebra"] == "wedge"]
    assert wedge == [2, 3]
    for algebra in ("sym", "sym0"):
        assert [row["p"] for row in doc["rows"]
                if row["algebra"] == algebra] == [2, 3, 4]


@pytest.mark.parametrize("suite", ["thmB", "integral", "gpowers"])
def test_verify_n_below_three_exits_two(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "2")
    assert code == 2
    assert out == ""
    assert "--n" in err


@pytest.mark.parametrize("suite", ["thmB", "integral", "lemmas", "gpowers"])
def test_verify_pmax_below_two_exits_two(capsys, suite):
    # no suite checks a degree below 2, so such a run must not report a pass
    for pmax in ("1", "0"):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--pmax", pmax)
        assert code == 2
        assert out == ""
        assert "--pmax" in err


@pytest.mark.parametrize("suite", ["thmB", "integral", "lemmas", "gpowers"])
def test_verify_trials_below_one_exits_two(capsys, suite):
    # with no trial the random suites would check nothing yet pass
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials" in err


# ---------------------------------------------------------------------------
# certify


def test_certify_identity_bound(capsys):
    doc = run_json(capsys, "certify", "identity", "--n", "4", "--k", "1.0")
    assert doc["verdict"] == "certified"
    assert doc["method"] == "thorpe_exact"


def test_certify_refuted_bound_exits_one(capsys):
    code, out, _ = run(capsys, "certify", "s2xs2", "--n", "4", "--k", "0.01")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "refuted"


def test_certify_strict_boundary_is_inconclusive(capsys):
    code, out, _ = run(capsys, "certify", "identity", "--n", "4", "--k",
                       "1.0", "--strict")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive_for_certification"


def test_certify_outside_dim_four_certifies_psd_shift(capsys):
    # both bounds hold because R - k Id is positive semidefinite
    for name, n, k in (("RL", "5", "-10"), ("identity", "6", "0.5")):
        code, out, _ = run(capsys, "certify", name, "--n", n, "--k", k)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "certified"
        assert doc["method"] == "psd_shift"
        assert doc["witness"]["lambda_min"] >= 0.0
    with pytest.raises(SystemExit) as exc:      # argparse: no such option
        cli.main(["certify", "RL", "--n", "5", "--k", "0", "--pmax", "2"])
    assert exc.value.code == 2


def test_seed_is_an_option_of_verify_only(capsys):
    # decompose, kterm and certify have no randomized step to seed
    for argv in (["decompose", "identity"],
                 ["kterm", "identity", "--rep", "wedge", "--p", "2"],
                 ["certify", "identity", "--k", "0"]):
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as exc:  # argparse: no such option
            cli.main(argv + ["--seed", "1"])
        assert exc.value.code == 2
    assert run(capsys, "verify", "--suite", "lemmas", "--pmax", "2",
               "--seed", "1")[0] == 0


def test_certify_deterministic_output(capsys):
    args = ("certify", "RL", "--n", "5", "--k", "0.5")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def readme_commands():
    """(argv, comment) of every ``curvelab ...`` line in README's sh blocks."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.M | re.S)
    for line in "".join(blocks).splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] == ["curvelab"]:
            yield argv[1:], comment.strip()


def test_readme_cli_examples_run_as_documented(capsys):
    # each example exits 0 or 1 with strict JSON; a trailing comment that
    # names a verdict, and a method in parentheses, must match the output
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    examples = list(readme_commands())
    assert len(examples) >= 10
    for argv, comment in examples:
        code, out, err = run(capsys, *argv)
        assert code in (0, 1), (argv, err)
        doc = json.loads(out, parse_constant=reject)
        named = re.match(r"(certified|refuted|inconclusive_for_certification)"
                         r"\b(?:\s*\((\w+)\))?", comment)
        if named:
            assert doc["verdict"] == named[1], argv
            assert named[2] in (None, doc["method"]), argv


def test_internal_error_exits_three_with_json(capsys, monkeypatch):
    # an internal failure must not share exit 1 with a refuted bound, nor
    # exit 2 with bad input (LinAlgError is a ValueError)
    for exc in (RuntimeError("golden search lost concavity"),
                np.linalg.LinAlgError("Eigenvalues did not converge")):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(certify, "certify_bound", broken)
        code, out, err = run(capsys, "certify", "s2xs2", "--n", "4",
                             "--k", "0")
        assert code == 3
        assert json.loads(out) == {"error": f"{type(exc).__name__}: {exc}"}
        assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# plumbing


def test_stdin_input(capsys, monkeypatch):
    doc = cli.operator_to_json(fixture_operator("s2xs2", 4))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    out = run_json(capsys, "decompose", "-")
    assert out["scal"] == pytest.approx(4.0, abs=1e-12)


def test_asymmetry_warning(capsys, tmp_path):
    doc = cli.operator_to_json(fixture_operator("identity", 4))
    doc["matrix"][0][1] = 1e-3
    src = tmp_path / "asym.json"
    src.write_text(json.dumps(doc))
    out = run_json(capsys, "decompose", str(src))
    assert "warning" in out
    assert "symmetrized" in out["warning"]
    # below the threshold no warning appears
    doc["matrix"][0][1] = 1e-9
    src.write_text(json.dumps(doc))
    out = run_json(capsys, "decompose", str(src))
    assert "warning" not in out


def test_out_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "res.json"
    code, stdout, _ = run(capsys, "kterm", "identity", "--n", "4",
                          "--rep", "wedge", "--p", "2",
                          "--out", str(out_path))
    assert code == 0
    assert stdout == ""
    doc = json.loads(out_path.read_text())
    assert doc["lambda_min"] == pytest.approx(4.0, abs=1e-10)


# ---------------------------------------------------------------------------
# process start


_IMPORT_PROBE = """
import contextlib, io, json, sys
from curvelab import cli
codes = []
for argv in (["decompose", "s2xs2"],
             ["kterm", "RL", "--n", "5", "--rep", "sym0", "--p", "3"],
             ["certify", "RL", "--n", "5", "--k", "-0.9"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_commands_never_import_scipy():
    # scipy costs a CLI process more than its own work does; none of these
    # commands (K(R) on Harm^p and an n = 5 plane refutation included)
    # may load it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 1]
    assert result["scipy"] == []


_LOADED_PROBE = """
import contextlib, io, json, sys
argv = sys.argv[1:]
if argv == ["import"]:
    import curvelab
elif argv == ["import", "cli"]:
    import curvelab.cli
else:
    from curvelab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "numpy" or m.startswith("curvelab."))))
"""


def loaded_modules(*argv):
    """curvelab's submodules (bare names) and numpy, as loaded by a fresh
    interpreter that imports the package or runs one CLI command."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, *argv],
                          env=env, capture_output=True, text=True, check=True)
    return {m.removeprefix("curvelab.") for m in json.loads(proc.stdout)}


def test_import_curvelab_loads_no_submodule_and_no_numpy():
    assert loaded_modules("import") == set()


def test_import_cli_loads_no_other_curvelab_module():
    assert loaded_modules("import", "cli") - {"numpy"} == {"cli"}


def test_verify_lemmas_loads_only_littlewood():
    assert loaded_modules("verify", "--suite", "lemmas") - {"numpy"} == {
        "cli", "littlewood"}


def test_decompose_loads_no_certification_or_verification_module():
    loaded = loaded_modules("decompose", "s2xs2")
    assert "curvature" in loaded
    assert not loaded & {"certify", "closedform", "spherical", "littlewood",
                         "knalgebra", "weitzenbock"}


def test_certify_loads_no_verification_module():
    loaded = loaded_modules("certify", "s2xs2", "--n", "4", "--k", "0")
    assert "certify" in loaded
    assert not loaded & {"closedform", "spherical", "littlewood", "knalgebra"}


def test_public_names_resolve_to_their_defining_modules():
    from curvelab import certify_bound

    assert certify_bound is certify.certify_bound
    for name in curvelab.__all__:
        value = getattr(curvelab, name)
        assert value.__module__.startswith("curvelab.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(curvelab)
    with pytest.raises(AttributeError):
        getattr(curvelab, "no_such_name")
