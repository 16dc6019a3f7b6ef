import csv
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import CLI_ENV

from mvkraw import (AbsorbingState, CapExceeded, ModelParams, NoConvergence,
                    StateSpace, ValidationError, cli, solve_spectrum,
                    table_via_generating_function)
from mvkraw.spectrum import _derived

CLI = [sys.executable, "-m", "mvkraw"]


def run_cli(*args):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, env=CLI_ENV
    )


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(
        {"schema": 1, "n": 2, "N": 4, "p": [1.0, 1.0], "q": [1.0, 3.0]}
    ))
    return path


def test_spectrum_outputs_and_manifest(tmp_path, params_file):
    out = tmp_path / "run"
    res = run_cli("spectrum", "--params", params_file, "--out", out)
    assert res.returncode == 0, res.stderr
    csv_text = (out / "spectrum.csv").read_text()
    assert csv_text.startswith("# manifest: spectrum.json\n")
    manifest = json.loads((out / "spectrum.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["summary"]["max_secular_residual"] < 1e-12
    lams = manifest["summary"]["eigenvalues"]
    assert lams == sorted(lams)
    assert "eigenvalues:" in res.stdout


def test_reruns_are_byte_identical(tmp_path, params_file):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("spectrum", "--params", params_file, "--out", out1).returncode == 0
    assert run_cli("spectrum", "--params", params_file, "--out", out2).returncode == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "spectrum.json").read_bytes() == (out2 / "spectrum.json").read_bytes()


def test_verify_full_passes(tmp_path, params_file):
    out = tmp_path / "run"
    res = run_cli("verify", "--params", params_file, "--out", out)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS]" in res.stdout
    assert "[FAIL]" not in res.stdout
    manifest = json.loads((out / "verify.json").read_text())
    assert manifest["report"]["passed"] is True
    names = {c["name"] for c in manifest["report"]["checks"]}
    assert "orthonormal-map" in names
    assert "generating-function-agreement" in names


@pytest.mark.parametrize(
    "model",
    [
        # raw P reaches ~1e5 here; only the orthonormal scale is meaningful
        {"n": 2, "N": 20, "p": [1.0, 2.0], "q": [1.0, 4.0]},
        {"n": 4, "N": 8, "p": [1.0, 2.0, 1.5, 0.7], "q": [1.0, 3.0, 6.0, 2.2]},
    ],
)
def test_verify_full_passes_where_raw_values_are_large(tmp_path, model):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, **model}))
    res = run_cli("verify", "--params", path, "--out", tmp_path / "run")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[FAIL]" not in res.stdout
    assert "generating-function-agreement" in res.stdout


def test_verify_fault_injection_fails(tmp_path, params_file):
    out = tmp_path / "run"
    res = run_cli("verify", "--params", params_file, "--out", out,
                  "--inject-u-perturbation", "1e-6")
    assert res.returncode == 1
    assert "[FAIL]" in res.stdout
    manifest = json.loads((out / "verify.json").read_text())
    assert manifest["report"]["passed"] is False
    assert manifest["injected_perturbation"] == 1e-6


IDENTITY_CHECKS = {
    "weighted-column-sums",
    "weighted-column-cross-sums",
    "dual-weighted-row-sums",
    "dual-weighted-row-cross-sums",
    "congruence-diagonalization",
}


def test_fast_fault_injection_names_an_identity_check(tmp_path, params_file):
    # at level fast no table check runs, so an identity check must catch it
    out = tmp_path / "run"
    res = run_cli("verify", "--level", "fast", "--params", params_file,
                  "--out", out, "--inject-u-perturbation", "1e-6")
    assert res.returncode == 1, res.stdout + res.stderr
    failed = {line[len("[FAIL] "):].split(":")[0]
              for line in res.stdout.splitlines() if line.startswith("[FAIL] ")}
    assert failed & IDENTITY_CHECKS, res.stdout


@pytest.mark.parametrize(
    "model",
    [
        # P reaches 1e240 at these; the eigen equation is judged on T
        {"n": 1, "N": 80, "p": [1.0], "q": [3000.0]},
        {"n": 1, "N": 200, "p": [1000.0], "q": [1.0]},
        {"n": 2, "N": 40, "p": [1.0, 1.0], "q": [1e4, 2e4]},
        # P leaves the float64 range at these; every check reads T alone
        {"n": 1, "N": 80, "p": [1.0], "q": [1e4]},
        {"n": 2, "N": 50, "p": [1.0, 1.0], "q": [1e6, 2e6]},
    ],
)
def test_eigen_equation_on_the_orthonormal_scale(tmp_path, model):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, **model}))
    res = run_cli("verify", "--params", path, "--out", tmp_path / "ok")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[FAIL]" not in res.stdout
    res = run_cli("verify", "--params", path, "--out", tmp_path / "bad",
                  "--inject-u-perturbation", "1e-6")
    assert res.returncode == 1, res.stdout + res.stderr
    failed = {line[len("[FAIL] "):].split(":")[0]
              for line in res.stdout.splitlines() if line.startswith("[FAIL] ")}
    assert failed & IDENTITY_CHECKS, res.stdout
    assert "eigen-equation" in failed, res.stdout


VERIFY_FULL_CHECKS = [
    "generator-column-sums", "generator-annihilates-weight",
    "symmetrized-is-symmetric", "symmetrized-similarity", "ladder-factorization",
    "ladder-annihilates-sqrt-weight", "difference-op-similarity",
    "difference-op-annihilates-constants", "symmetrized-annihilates-sqrt-weight",
    "symmetrized-positive-semidefinite", "secular-residuals",
    "weighted-column-sums", "weighted-column-cross-sums",
    "dual-weighted-row-sums", "dual-weighted-row-cross-sums",
    "congruence-diagonalization", "generating-function-agreement",
    "eigen-equation", "orthogonality-offdiagonal", "norms-closed-form",
    "dual-orthogonality-offdiagonal", "dual-norms-closed-form", "orthonormal-map",
]


def test_verify_forms_no_polynomial_table(tmp_path, params_file, monkeypatch):
    # every check of verify --level full reads T = Sym^N(R): no P table is
    # formed, and none is turned back into T
    def refuse(*_):
        raise AssertionError("verify formed a P table")

    for name in ("table", "orthonormal_map", "_to_P"):
        monkeypatch.setattr(f"mvkraw.polynomials.{name}", refuse)
    rc = cli.main(["verify", "--level", "full", "--params", str(params_file),
                   "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())["report"]
    assert [c["name"] for c in report["checks"]] == VERIFY_FULL_CHECKS


def test_verify_passes_near_coincident_q(tmp_path):
    # |u| is 6e3 here; the identities are judged on the orthonormal scale
    path = tmp_path / "params.json"
    path.write_text(json.dumps(
        {"schema": 1, "n": 2, "N": 6, "p": [1.0, 2.0], "q": [2.0, 2.001]}
    ))
    res = run_cli("verify", "--params", path, "--out", tmp_path / "run")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[FAIL]" not in res.stdout


def test_coincident_parameters_exit_code(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(
        {"schema": 1, "n": 2, "N": 3, "p": [1.0, 2.0], "q": [2.0, 2.0]}
    ))
    res = run_cli("spectrum", "--params", path, "--out", tmp_path)
    assert res.returncode == 3
    assert res.stderr == (
        "exceptional parameters: equal death intensities q_1 = q_2 = 2.0; "
        "use the numeric eigenbasis\n"
    )


def test_spectrum_fails_on_secular_residual(tmp_path, params_file,
                                           monkeypatch, capsys):
    # a root moved by 1e-6 relative, with the data derived from it, must
    # trip the residual gate
    def off_root(params):
        p, q = np.array(params.p), np.array(params.q)
        lam = solve_spectrum(params).lam * (1.0 + 1e-6)
        return _derived(p, q, lam, lam[None, :] - q[:, None])

    monkeypatch.setattr("mvkraw.spectrum.solve_spectrum", off_root)
    out = tmp_path / "run"
    rc = cli.main(["spectrum", "--params", str(params_file), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 1, stdout
    assert "[FAIL] secular-residuals" in stdout
    manifest = json.loads((out / "spectrum.json").read_text())
    assert manifest["report"]["passed"] is False


@pytest.mark.parametrize(
    "model",
    [
        # |u| is 1e9 here
        {"n": 2, "N": 6, "p": [1.0, 2.0], "q": [2.0, 2.000000003]},
        # a valid model the absolute residual scale used to fail (8.3e-9)
        {"n": 3, "N": 4, "p": [9.333, 7.29412, 3.04224],
         "q": [0.84237716, 0.84238558, 1.0717204]},
        # adjacent floats: only equal q's are exceptional, |u| is 1e16 here
        {"n": 2, "N": 6, "p": [1.0, 2.0], "q": [2.0, 2.0000000000000004]},
    ],
)
def test_spectrum_and_verify_pass_near_the_coincidence_band(tmp_path, model):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, **model}))
    res = run_cli("spectrum", "--params", path, "--out", tmp_path / "spectrum")
    assert res.returncode == 0, res.stdout + res.stderr
    res = run_cli("verify", "--level", "full", "--params", path,
                  "--out", tmp_path / "verify")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[FAIL]" not in res.stdout

    res = run_cli("verify", "--level", "full", "--params", path,
                  "--out", tmp_path / "injected", "--inject-u-perturbation", "1e-6")
    assert res.returncode == 1, res.stdout + res.stderr
    failed = {line[len("[FAIL] "):].split(":")[0]
              for line in res.stdout.splitlines() if line.startswith("[FAIL] ")}
    assert failed & IDENTITY_CHECKS, res.stdout


@pytest.mark.parametrize("error, code", [
    (ValidationError, 2), (CapExceeded, 4), (NoConvergence, 5), (AbsorbingState, 6),
])
def test_runtime_failures_have_own_exit_codes(
    tmp_path, params_file, monkeypatch, capsys, error, code
):
    line = {2: "error: injected", 4: "error: injected",
            5: "error: no convergence: injected",
            6: "error: absorbing state: injected"}[code]

    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr("mvkraw.spectrum.solve_spectrum", fail)
    rc = cli.main(["spectrum", "--params", str(params_file), "--out", str(tmp_path)])
    assert rc == code
    assert capsys.readouterr().err == line + "\n"


def test_invalid_inputs_exit_code(tmp_path, params_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("spectrum", "--params", bad, "--out", tmp_path).returncode == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(
        {"schema": 1, "n": 2, "N": 3, "p": [1, 2], "q": [3, 5], "gamma": 1}
    ))
    res = run_cli("spectrum", "--params", unknown, "--out", tmp_path)
    assert res.returncode == 2
    assert "unknown keys" in res.stderr

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"schema": 1, "n": 2, "N": 3, "p": [1, 2]}))
    res = run_cli("spectrum", "--params", missing, "--out", tmp_path)
    assert res.returncode == 2
    assert "missing keys" in res.stderr

    wrong_schema = tmp_path / "schema.json"
    wrong_schema.write_text(json.dumps(
        {"schema": 2, "n": 2, "N": 3, "p": [1, 2], "q": [3, 5]}
    ))
    assert run_cli("spectrum", "--params", wrong_schema,
                   "--out", tmp_path).returncode == 2

    # singular rational surface is an input error, not an exceptional one
    res = run_cli("rational", "--rates", 1, 2, 2, 4, "--out", tmp_path)
    assert res.returncode == 2

    # malformed values are input errors too, not a traceback with exit 1
    for p in (1, ["x"]):
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(
            {"schema": 1, "n": 1, "N": 3, "p": p, "q": [3]}
        ))
        res = run_cli("spectrum", "--params", malformed, "--out", tmp_path)
        assert res.returncode == 2, (p, res.stderr)
        assert "Traceback" not in res.stderr
    # JSON true is not an integer dimension or ceiling
    for sizes in ({"n": True, "N": 3}, {"n": 1, "N": True}):
        boolean = tmp_path / "boolean.json"
        boolean.write_text(json.dumps({"schema": 1, **sizes, "p": [1], "q": [3]}))
        for command in ("spectrum", "verify"):
            res = run_cli(command, "--params", boolean, "--out", tmp_path)
            assert res.returncode == 2, (sizes, command, res.stderr)
            assert "Traceback" not in res.stderr


_UNIFORM = (b'{"schema": 1, "mode": "uniformization", "time": 1.0, "steps": 2, '
            b'"params": {"schema": 1, "n": 1, "N": 2, "p": [1], "q": [2]}, ')


@pytest.mark.parametrize("command, text", [
    # a string or JSON true is not a number, though float() reads both
    ("spectrum", b'{"schema": 1, "n": 2, "N": 3, "p": ["1", true], "q": [1, "3e0"]}'),
    ("spectrum", b'{"schema": true, "n": 2, "N": 3, "p": [1, 2], "q": [1, 3]}'),
    ("simulate", _UNIFORM + b'"initial": ["1", 0, 0]}'),
    ("simulate", _UNIFORM + b'"initial": [true, false, false]}'),
    # not UTF-8, and a key given twice, which `json` reads as its last value
    ("spectrum", b'{"schema": 1, "n": 1, "N": 2, "p": [1], "q": [2], "x": "\xff"}'),
    ("spectrum", b'{"schema": 1, "n": 2, "N": 3, "p": [1, 2], "q": [1, 3], "p": [5, 6]}'),
], ids=["string-or-bool-rate", "bool-schema", "string-initial", "bool-initial",
        "not-utf8", "duplicate-key"])
def test_malformed_json_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_bytes(text)
    source = "--config" if command == "simulate" else "--params"
    out = tmp_path / "run"
    rc = cli.main([command, source, str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("spectrum", "--band", "nan"),
    ("spectrum", "--band", "-1"),
    ("verify", "--band", "nan"),
    ("verify", "--band", "-1"),
    ("table", "--band", "0"),
    ("spectrum", "--cap", "10"),
    ("simulate", "--tol", "1e-10"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "-1"),
    ("rational", "--tol", "nan"),
    ("rational", "--tol", "-1"),
    ("verify", "--inject-u-perturbation", "nan"),
    ("table", "--cap", "0"),
    ("table", "--cap", "-1"),
    ("simulate", "--seed", "6"),
])
def test_bad_option_values_exit_2(tmp_path, capsys, command, option, value):
    # a bad tolerance or injection would make the checks pass or fail
    # whatever the model; `--band` is gone (only equal q's are
    # exceptional), as are the options `spectrum` and `simulate` ignored,
    # `--cap` (the lattice cap is `lattice.LATTICE_CAP`) and `simulate
    # --seed` (the seed is the config's), and the parser rejects each
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, "n": 2, "N": 3, "p": [1.0, 2.0], "q": [1.0, 3.0]}))
    source = {"rational": ["--rates", "1", "2", "3", "4"],
              "simulate": ["--config", str(path)]}.get(command, ["--params", str(path)])
    try:
        rc = cli.main([command, *source, option, value, "--out", str(tmp_path)])
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2, err
    assert option in err, err


@pytest.mark.parametrize("below, reason", [
    (None, "File exists"), ("sub", "Not a directory"),
])
def test_out_that_cannot_be_created_exits_2(tmp_path, params_file, below, reason):
    # an existing file, or a path below one, cannot be made a directory:
    # invalid input, not a failed check
    out = tmp_path / "file"
    out.write_text("")
    if below:
        out = out / below
    res = run_cli("spectrum", "--params", params_file, "--out", out)
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"error: cannot create output directory {out}: {reason}\n"


@pytest.mark.parametrize("command, source", [
    ("verify", ["--level", "full"]), ("rational", ["--rates", "1", "2", "3", "4"]),
])
def test_out_is_created_before_the_report_is_printed(tmp_path, params_file, capsys,
                                                     command, source):
    # the report is printed only once --out exists: a bad --out exits 2
    # before any [PASS] line
    out = tmp_path / "file"
    out.write_text("")
    if command == "verify":
        source = [*source, "--params", str(params_file)]
    rc = cli.main([command, *source, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.out == ""
    assert captured.err == f"error: cannot create output directory {out}: File exists\n"


def test_cli_leaves_scipy_unloaded(tmp_path):
    # every command runs on numpy alone but uniformization from a general
    # start: operators are applied as neighbour stencils, tables are
    # products of plane factors
    params = tmp_path / "params.json"
    params.write_text(json.dumps(
        {"schema": 1, "n": 2, "N": 4, "p": [1, 1], "q": [1, 3]}
    ))
    simulate = {"schema": 1, "params": json.loads(params.read_text()),
                "mode": "uniformization", "time": 2.0, "steps": 4}
    origin, point = tmp_path / "origin.json", tmp_path / "point.json"
    origin.write_text(json.dumps({**simulate, "initial": "origin"}))
    point.write_text(json.dumps({**simulate, "initial": [0.0] * 4 + [1.0] + [0.0] * 10}))
    model = ["--params", str(params)]
    runs = [
        (["table", *model], 0),
        (["table", "--level", "full", *model], 0),
        (["verify", "--level", "fast", *model], 0),
        (["verify", "--level", "fast", *model, "--inject-u-perturbation", "1e-6"], 1),
        (["verify", "--level", "full", *model], 0),
        (["verify", "--level", "full", *model, "--inject-u-perturbation", "1e-6"], 1),
        (["spectrum", *model], 0),
        (["rational", "--rates", "1", "2", "3", "4"], 0),
        (["simulate", "--config", str(origin)], 0),
        (["simulate", "--config", str(point)], 0),
    ]
    code = (
        "import sys\n"
        "from mvkraw.cli import main\n"
        f"for args, expected in {runs!r}:\n"
        f"    rc = main(args + ['--out', {str(tmp_path)!r}])\n"
        "    assert rc == expected, (args, rc)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=CLI_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert "uniformization: exact route" in out.stdout


PUBLIC_NAMES = [
    "AbsorbingState", "CapExceeded", "Check", "DualPair", "EigenBasis",
    "EvolveResult", "ExceptionalParameters", "GillespieResult", "ModelParams",
    "NoConvergence", "RationalParams", "RelaxationFit", "Report",
    "SingularParameters", "SpectralData", "StateSpace", "ValidationError", "bdcore",
    "check_compatibility", "check_rate_tables", "derive_dual_pair",
    "difference_operator_from_tables", "eigen_residuals", "errors", "eval_P",
    "eval_P_via_generating_function", "eval_rational", "evolve_distribution",
    "generator_from_tables", "gillespie_run", "identity_checks", "kl_divergence",
    "kr_P", "ladder_from_tables", "lattice", "model", "numeric_eigenbasis",
    "orthonormal_map", "orthonormality", "polynomials", "probabilities",
    "rate_tables", "rational", "rational_case_n2", "relaxation_rate", "report",
    "secular_function", "simplex_size", "simulate", "solve_spectrum", "spectrum",
    "stationary_weight_generic", "symmetrized_from_tables", "sympower", "table",
    "table_via_generating_function", "total_variation", "verify_recurrence",
    "verify_structure", "weight_vector",
]


@pytest.mark.parametrize("command, unloaded", [
    (None, {"numpy", "mvkraw.errors", "mvkraw.lattice", "mvkraw.model"}),
    ("verify", {"mvkraw.polynomials", "mvkraw.sympower", "mvkraw.simulate",
                "mvkraw.rational"}),
    ("simulate", {"mvkraw.spectrum", "mvkraw.polynomials", "mvkraw.rational"}),
    ("uniformization", {"mvkraw.bdcore", "mvkraw.spectrum", "mvkraw.polynomials", "scipy"}),
    ("gillespie", {"mvkraw.bdcore", "mvkraw.sympower", "scipy"}),
    ("verify-full", {"mvkraw.simulate", "mvkraw.rational", "scipy"}),
    ("table-full", {"mvkraw.bdcore", "mvkraw.simulate", "mvkraw.rational", "scipy"}),
])
def test_each_call_loads_only_its_layers(tmp_path, command, unloaded):
    # `import mvkraw` resolves its names on first use, and each command
    # imports the layers it computes with when it runs: neither the exact
    # law from the origin nor the Gillespie loop needs an operator (bdcore)
    # or a sparse matrix (scipy)
    params = {"schema": 1, "n": 2, "N": 4, "p": [1, 1], "q": [1, 3]}
    (tmp_path / "params.json").write_text(json.dumps(params))
    runs = {
        None: [],
        "verify": [["verify", "--level", "fast", "--params", str(tmp_path / "params.json")]],
        "verify-full": [["verify", "--level", "full", "--params",
                         str(tmp_path / "params.json")]],
        "table-full": [["table", "--level", "full", "--params",
                        str(tmp_path / "params.json")]],
        "simulate": [["simulate", "--config", str(tmp_path / mode)]
                     for mode in ("gillespie.json", "uniformization.json")],
        "uniformization": [["simulate", "--config", str(tmp_path / "uniformization.json")]],
        "gillespie": [["simulate", "--config", str(tmp_path / "gillespie.json")]],
    }[command]
    (tmp_path / "gillespie.json").write_text(json.dumps(
        {"schema": 1, "params": params, "mode": "gillespie", "events": 1000, "seed": 1}))
    (tmp_path / "uniformization.json").write_text(json.dumps(
        {"schema": 1, "params": params, "mode": "uniformization", "time": 1.0,
         "steps": 2, "initial": "origin"}))
    code = (
        "import json, sys\n"
        "import mvkraw\n"
        f"for args in {runs!r}:\n"
        "    from mvkraw.cli import main\n"
        f"    assert main(args + ['--out', {str(tmp_path)!r}]) == 0, args\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m.split('.')[0] in ('mvkraw', 'numpy', 'scipy')]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=CLI_ENV)
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    assert not loaded & unloaded, sorted(loaded & unloaded)
    if command is None:
        assert loaded == {"mvkraw"}


def test_public_names_resolve():
    code = (
        "import mvkraw\n"
        "names = sorted(mvkraw.__all__)\n"
        "missing = [n for n in names if getattr(mvkraw, n, None) is None]\n"
        "scope = {}\n"
        "exec('from mvkraw import *', scope)\n"
        "assert set(names) <= set(scope), set(names) - set(scope)\n"
        "assert set(names) <= set(dir(mvkraw))\n"
        "print(names, missing)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"{PUBLIC_NAMES} []"


def test_cap_exit_code(tmp_path):
    # (3,300) has 4,590,551 points, above LATTICE_CAP; refused before any
    # array is built
    path = tmp_path / "params.json"
    path.write_text(json.dumps(
        {"schema": 1, "n": 3, "N": 300, "p": [1, 2, 1.5], "q": [1, 3, 6]}
    ))
    res = run_cli("table", "--params", path, "--out", tmp_path / "run")
    assert res.returncode == 4
    assert res.stderr == (
        "error: size cap exceeded: lattice has 4590551 points > 2000000\n"), res.stderr


def test_dense_cap_is_the_kernel_cap(tmp_path):
    # (3,30) has 5,456 points: the sparse checks of `verify --level fast`
    # run there, every dense table stops at the kernel's 5,000-point cap
    path = tmp_path / "params.json"
    path.write_text(json.dumps(
        {"schema": 1, "n": 3, "N": 30, "p": [1, 2, 1.5], "q": [1, 3, 6]}
    ))
    out = tmp_path / "run"
    res = run_cli("verify", "--level", "fast", "--params", path, "--out", out)
    assert res.returncode == 0, res.stdout + res.stderr
    manifest = json.loads((out / "verify.json").read_text())
    assert manifest["report"]["passed"] is True
    assert all(c["passed"] for c in manifest["report"]["checks"])
    assert "symmetrized-positive-semidefinite" in res.stdout

    for args in (("verify", "--level", "full"), ("table",)):
        start = time.monotonic()
        res = run_cli(*args, "--params", path, "--out", out)
        assert res.returncode == 4, (args, res.stderr)
        assert res.stderr.startswith("error: size cap exceeded: dense table"), res.stderr
        assert time.monotonic() - start < 10.0


def test_table_and_oracle(tmp_path, params_file):
    out = tmp_path / "run"
    res = run_cli("table", "--params", params_file, "--out", out,
                  "--level", "full")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[PASS] generating-function-agreement" in res.stdout
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == "# manifest: table.json"
    assert lines[1].startswith("x\\m,")
    assert len(lines) == 2 + 15      # header rows + one row per state

    manifest = json.loads((out / "table.json").read_text())
    assert manifest["summary"]["generating_function_max_abs_diff"] < 1e-10
    lines = (out / "gen_oracle.csv").read_text().splitlines()
    assert lines[0] == "# manifest: table.json"
    assert lines[1].startswith("x\\m,")
    assert len(lines) == 2 + 15


@pytest.mark.parametrize("n, N", [(2, 4), (2, 10)])
def test_table_full_writes_both_tables(tmp_path, n, N, capsys):
    # `--level full` leaves table.csv as plain `table` writes it and puts
    # the oracle's table beside it, read off as `table_via_generating_function`
    model = {"schema": 1, "n": n, "N": N, "p": [1.0, 2.0], "q": [1.0, 4.0]}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(model))
    fast, full = tmp_path / "fast", tmp_path / "full"
    assert cli.main(["table", "--params", str(path), "--out", str(fast)]) == 0
    assert cli.main(["table", "--level", "full", "--params", str(path),
                     "--out", str(full)]) == 0
    capsys.readouterr()
    assert (full / "table.csv").read_bytes() == (fast / "table.csv").read_bytes()
    assert json.loads((full / "table.json").read_text())["outputs"] == [
        "table.csv", "gen_oracle.csv"]

    space = StateSpace(n, N)
    params = ModelParams(n=n, N=N, p=model["p"], q=model["q"])
    header, rows = cli._table_rows(
        space, table_via_generating_function(solve_spectrum(params), space))
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows([header, *rows])
    text = (full / "gen_oracle.csv").read_text()
    assert text == "# manifest: table.json\n" + body.getvalue()


def test_table_full_writes_no_failing_oracle(tmp_path, capsys):
    # the oracle's single-parent product drifts from the kernel at (1,80):
    # only the kernel's table is written, and the check fails
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, "n": 1, "N": 80, "p": [1.0], "q": [2.0]}))
    out = tmp_path / "run"
    rc = cli.main(["table", "--level", "full", "--params", str(path), "--out", str(out)])
    assert rc == 1
    assert "[FAIL] generating-function-agreement" in capsys.readouterr().out
    assert sorted(f.name for f in out.iterdir()) == ["table.csv", "table.json"]
    assert json.loads((out / "table.json").read_text())["outputs"] == ["table.csv"]


def test_gen_oracle_command_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-oracle", "--params", "params.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'gen-oracle'" in capsys.readouterr().err


def test_table_full_fails_on_nan_oracle(tmp_path, params_file, monkeypatch, capsys):
    # a NaN residual is no pass: the check's rule is residual <= tol
    monkeypatch.setattr("mvkraw.polynomials._oracle_map",
                        lambda spec, space: np.full((space.size, space.size), np.nan))
    for command in ("table", "verify"):
        rc = cli.main([command, "--level", "full", "--params", str(params_file),
                       "--out", str(tmp_path)])
        stdout = capsys.readouterr().out
        assert rc == 1, stdout
        assert "[FAIL] generating-function-agreement" in stdout
    # a failing oracle's table is not written beside the kernel's
    assert (tmp_path / "table.csv").exists()
    assert not (tmp_path / "gen_oracle.csv").exists()


def test_table_beyond_float64_exits_4(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, "n": 1, "N": 80, "p": [1.0], "q": [1e4]}))
    # every P is read off before anything is written, so neither level
    # leaves a file
    for level in ("fast", "full"):
        out = tmp_path / level
        rc = cli.main(["table", "--level", level, "--params", str(path), "--out", str(out)])
        assert rc == 4
        # the float64 range is no size cap, and the message does not call it one
        err = capsys.readouterr().err
        assert err == "error: polynomial values exceed the float64 range\n", err
        assert not out.exists()


MODEL_COMMANDS = ("spectrum", "table", "verify", "simulate")


@pytest.mark.parametrize("model, commands", [
    ({"n": 2, "N": 3, "p": [1e308, 1e308], "q": [1.0, 2.0]}, MODEL_COMMANDS),
    ({"n": 1, "N": 1, "p": [1e308], "q": [1e-300]}, MODEL_COMMANDS),
    ({"n": 2, "N": 1, "p": [1e300, 1e300], "q": [1.0, 1.0 + 2**-52]}, MODEL_COMMANDS[:3]),
    ({"n": 2, "N": 2, "p": [1e-300, 1e-300], "q": [1e300, 2e300]}, MODEL_COMMANDS),
    ({"n": 2, "N": 1000, "p": [1e306, 1e306], "q": [1.0, 2.0]}, ("verify", "simulate")),
    (None, ("rational",)),
], ids=["sum-p-overflows", "ratio-overflows", "secular-terms-overflow",
        "eta-underflows", "N-sum-p-overflows", "rational-sum-overflows"])
def test_float64_range_exits_4(tmp_path, capsys, model, commands):
    # valid inputs whose rate sums, secular terms, spectral data or cell
    # probabilities leave float64: one `error:` line and exit 4, where they
    # died with a traceback, exited 5 or 2, or exited 0 with a RuntimeWarning
    # (an error here); `simulate` solves no secular equation and runs the
    # third model
    sources = {"rational": ["--rates", *["1e308"] * 4, "-N", "2"]}
    if model is not None:
        params, config = tmp_path / "params.json", tmp_path / "sim.json"
        params.write_text(json.dumps({"schema": 1, **model}))
        config.write_text(json.dumps({"schema": 1, "params": {"schema": 1, **model},
                                      "mode": "gillespie", "events": 10, "seed": 1}))
        sources = {"simulate": ["--config", str(config)],
                   **{c: ["--params", str(params)] for c in MODEL_COMMANDS[:3]}}
    for command in commands:
        out = tmp_path / command
        rc = cli.main([command, *sources[command], "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 4, (command, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "outside the float64 range" in err, err
        assert not out.exists()


def test_verify_reads_the_multinomial_law(tmp_path, params_file, monkeypatch, capsys):
    # the three annihilation checks read the model's stationary law,
    # `weight_vector`: a weight off by 1e-6 at one point fails exactly them
    exact = cli.weight_vector

    def off(params, space):
        W = exact(params, space).copy()
        W[1] *= 1.0 + 1e-6
        return W / W.sum()

    monkeypatch.setattr(cli, "weight_vector", off)
    rc = cli.main(["verify", "--level", "fast", "--params", str(params_file),
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1, out
    failed = {line.split()[1].rstrip(":") for line in out.splitlines()
              if line.startswith("[FAIL]")}
    assert failed == {"generator-annihilates-weight", "ladder-annihilates-sqrt-weight",
                      "symmetrized-annihilates-sqrt-weight"}, out


def test_simulate_gillespie(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 2, "N": 4, "p": [1.0, 1.0], "q": [1.0, 3.0]},
        "mode": "gillespie",
        "events": 5000,
        "seed": 5,
    }))
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", cfg, "--out", out)
    assert res.returncode == 0, res.stderr
    assert (out / "occupation.csv").read_text().startswith(
        "# manifest: simulate.json\n"
    )
    manifest = json.loads((out / "simulate.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["rng_family"] == "numpy-PCG64"
    assert manifest["summary"]["tv_to_stationary"] < 0.25

    # the seed is read from the config alone
    cfg.write_text(cfg.read_text().replace('"seed": 5', '"seed": 6'))
    res = run_cli("simulate", "--config", cfg, "--out", out)
    assert res.returncode == 0
    assert json.loads((out / "simulate.json").read_text())["seed"] == 6


def test_simulate_uniformization(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 2, "N": 4, "p": [1.0, 1.0], "q": [1.0, 3.0]},
        "mode": "uniformization",
        "time": 6.0,
        "steps": 12,
    }))
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", cfg, "--out", out)
    assert res.returncode == 0, res.stderr
    lines = (out / "evolution.csv").read_text().splitlines()
    assert lines[0] == "# manifest: simulate.json"
    assert lines[1] == "time,tv,kl"
    assert len(lines) == 2 + 13
    assert res.stdout.startswith("uniformization: exact route, tv(T) = ")
    text = (out / "simulate.json").read_text()
    manifest = json.loads(text)
    assert manifest["summary"]["mass_defect"] < 1e-12
    assert manifest["summary"]["final_tv"] < 1e-3
    assert manifest["summary"]["route"] == "exact"
    assert run_cli("simulate", "--config", cfg, "--out", out).returncode == 0
    assert (out / "simulate.json").read_text() == text


def test_simulate_uniformization_with_underflowing_weight(tmp_path):
    # 158 of the 1,201 stationary weights are 0.0 in double precision; the
    # KL trace needs W > 0 only where the law has mass
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "schema": 1,
        "params": {"schema": 1, "n": 1, "N": 1200, "p": [1.0], "q": [2.0]},
        "mode": "uniformization",
        "time": 5.0,
        "steps": 10,
    }))
    out = tmp_path / "run"
    res = run_cli("simulate", "--config", cfg, "--out", out)
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "simulate.json").read_text())["summary"]
    assert summary["final_tv"] < 1e-4
    rows = (out / "evolution.csv").read_text().splitlines()[2:]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_simulate_config_validation(tmp_path):
    base = {"schema": 1,
            "params": {"schema": 1, "n": 1, "N": 2, "p": [1.0], "q": [2.0]}}
    for broken in (
        {**base, "mode": "gillespie"},                       # no events
        {**base, "mode": "gillespie", "events": 10},         # no seed
        {**base, "mode": "uniformization", "time": 1.0},     # no steps
        {**base, "mode": "diffusion", "events": 10},         # unknown mode
        {**base, "mode": "gillespie", "events": 10, "seed": 1, "extra": 0},
        {**base, "mode": "gillespie", "events": 10, "seed": 1,
         "initial": "stationary"},                           # not a point
        {**base, "mode": "gillespie", "events": 10.5, "seed": 1},
        {**base, "mode": "gillespie", "events": "ten", "seed": 1},
        {**base, "mode": "gillespie", "events": 10, "seed": "one"},
        {**base, "mode": "uniformization", "time": "x", "steps": 2},
        {**base, "mode": "uniformization", "time": 1.0, "steps": None},
        {**base, "mode": "uniformization", "time": 1.0, "steps": 2,
         "initial": ["x"]},
        {**base, "mode": "uniformization", "time": 1.0, "steps": 2,
         "initial": [float("nan"), 0.5, 0.5]},              # NaN passed
        # a non-integral or boolean start is rejected, not truncated to (1,)
        {**base, "mode": "gillespie", "events": 10, "seed": 1, "initial": [1.5]},
        {**base, "mode": "gillespie", "events": 10, "seed": 1, "initial": [True]},
        {**base, "params": {**base["params"], "n": True}, "mode": "gillespie",
         "events": 10, "seed": 1},
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(broken))
        # the config is checked and the run made before --out is created
        out = tmp_path / "run"
        res = run_cli("simulate", "--config", cfg, "--out", out)
        assert res.returncode == 2, broken
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, broken
        assert not out.exists(), broken


def test_simulate_integer_inputs(tmp_path):
    base = {"schema": 1, "mode": "gillespie", "events": 10, "seed": 1,
            "params": {"schema": 1, "n": 1, "N": 2, "p": [1.0], "q": [2.0]}}
    uniform = {**base, "mode": "uniformization", "time": 1.0, "steps": 2}
    del uniform["events"], uniform["seed"]
    cfg = tmp_path / "cfg.json"
    for broken, key in (({**base, "seed": -1}, "seed"), ({**base, "events": 2.9}, "events"),
                        ({**base, "events": True}, "events"),
                        ({**uniform, "steps": 2.9}, "steps"),
                        ({**uniform, "steps": True}, "steps"),
                        ({**uniform, "time": True}, "time"),
                        ({**base, "events": "10"}, "events"),
                        ({**uniform, "time": "1.0"}, "time")):
        cfg.write_text(json.dumps(broken))
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path)
        assert res.returncode == 2, (broken, res.stderr)
        assert key in res.stderr and "Traceback" not in res.stderr, res.stderr
    # an integral float, and a seed float64 cannot hold exactly, both run
    for ok in ({**base, "events": 10.0}, {**base, "seed": 2**53 + 1}):
        cfg.write_text(json.dumps(ok))
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path)
        assert res.returncode == 0, (ok, res.stderr)


def test_rational_command(tmp_path):
    out = tmp_path / "run"
    res = run_cli("rational", "--rates", 1, 2, 3, 4, "-N", 5, "--out", out)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "note:" in res.stdout
    assert "[FAIL]" not in res.stdout
    manifest = json.loads((out / "rational.json").read_text())
    assert [c["name"] for c in manifest["report"]["derivation"]["checks"]] == [
        "dual-secular-root-1", "dual-secular-root-2", "coupling-closed-form",
        "probability-normalization", "dual-probability-normalization",
        "dual-probability-ratio-route", "x-norm-ratio-moment-route",
        "m-norm-ratio-moment-route", "probability-ratio-route",
        "x-weighted-row-sums", "m-weighted-column-sums",
        "x-weighted-cross-sum", "m-weighted-cross-sum",
    ]
    assert {c["tol"] for c in manifest["report"]["derivation"]["checks"]} == {1e-10}
    assert manifest["dual"]["q"] == [-0.5, pytest.approx(1 / 3)]
    assert manifest["dual"]["couplings"]["t"] == pytest.approx(1.2)
    assert "denominator" in manifest["note"]


def test_rational_command_at_larger_N(tmp_path):
    # the table of the rational family comes from the symmetric-power
    # kernel; the four-index series failed m-orthogonality here (1.4e-4)
    res = run_cli("rational", "--rates", 1, 2, 3, 4, "-N", 10, "--out", tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[FAIL]" not in res.stdout


def test_rational_command_respects_cap(tmp_path):
    # its recurrence lattice at N = 2000 has 2,003,001 points, above
    # LATTICE_CAP
    res = run_cli("rational", "--rates", 1, 2, 3, 4, "-N", 2000, "--out", tmp_path)
    assert res.returncode == 4
    assert res.stderr.startswith("error: size cap exceeded: lattice has 2003001"), res.stderr


@pytest.mark.parametrize("N", [54, 60])
def test_rational_command_where_P_passes_float64(tmp_path, N):
    # products of P overflow float64 at N = 54, and P itself from N = 55;
    # the recurrence reads P up to one positive constant off T, so nothing
    # overflows and no warning is printed
    res = run_cli("rational", "--rates", 0.001, 1000, 1000, 0.001, "-N", N,
                  "--out", tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stderr == ""
    assert "[FAIL]" not in res.stdout


@pytest.mark.parametrize("rates", [(1, 1, 1, 1.001), (1, 2, 3, 6.001)])
def test_rational_command_near_singular_surface(tmp_path, rates):
    # near p1*p4 = p2*p3 the dual rates grow like S/Delta; the derivation
    # and the recurrence both pass on the scale of their own quantities
    res = run_cli("rational", "--rates", *rates, "-N", 6, "--out", tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[FAIL]" not in res.stdout
