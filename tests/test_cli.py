import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mvkraw import AbsorbingState, NoConvergence, cli, solve_spectrum
from mvkraw.spectrum import _derived

CLI = [sys.executable, "-m", "mvkraw"]


def run_cli(*args):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True
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
    assert "exceptional parameters" in res.stderr
    assert "coincident" in res.stderr


def test_spectrum_fails_on_secular_residual(tmp_path, params_file,
                                           monkeypatch, capsys):
    # a root moved by 1e-6 relative, with the data derived from it, must
    # trip the residual gate
    def off_root(params, band=None):
        p, q = np.array(params.p), np.array(params.q)
        lam = solve_spectrum(params).lam * (1.0 + 1e-6)
        return _derived(p, q, lam, lam[None, :] - q[:, None])

    monkeypatch.setattr(cli, "solve_spectrum", off_root)
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
        # just outside the coincidence band: |u| is 1e9 here
        {"n": 2, "N": 6, "p": [1.0, 2.0], "q": [2.0, 2.000000003]},
        # a valid model the absolute residual scale used to fail (8.3e-9)
        {"n": 3, "N": 4, "p": [9.333, 7.29412, 3.04224],
         "q": [0.84237716, 0.84238558, 1.0717204]},
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


@pytest.mark.parametrize(
    "error, code", [(NoConvergence, 5), (AbsorbingState, 6)]
)
def test_runtime_failures_have_own_exit_codes(
    tmp_path, params_file, monkeypatch, capsys, error, code
):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "solve_spectrum", fail)
    rc = cli.main(["spectrum", "--params", str(params_file), "--out", str(tmp_path)])
    assert rc == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "injected" in err


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


def test_cap_exit_code(tmp_path, params_file):
    res = run_cli("table", "--params", params_file, "--out", tmp_path, "--cap", 3)
    assert res.returncode == 4
    assert "cap" in res.stderr


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
        assert "cap" in res.stderr
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

    res = run_cli("gen-oracle", "--params", params_file, "--out", out)
    assert res.returncode == 0
    manifest = json.loads((out / "gen_oracle.json").read_text())
    assert manifest["summary"]["cross_check_max_abs_diff"] < 1e-10


def test_table_full_fails_on_nan_oracle(tmp_path, params_file, monkeypatch, capsys):
    # a NaN residual is no pass: the check's rule is residual <= tol
    monkeypatch.setattr(cli, "table_via_generating_function",
                        lambda spec, space: np.full((space.size, space.size), np.nan))
    rc = cli.main(["table", "--level", "full", "--params", str(params_file),
                   "--out", str(tmp_path)])
    stdout = capsys.readouterr().out
    assert rc == 1, stdout
    assert "[FAIL] generating-function-agreement" in stdout


def test_table_beyond_float64_exits_4(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, "n": 1, "N": 80, "p": [1.0], "q": [1e4]}))
    out = tmp_path / "run"
    rc = cli.main(["table", "--params", str(path), "--out", str(out)])
    assert rc == 4
    assert "float64 range" in capsys.readouterr().err
    assert not (out / "table.csv").exists()


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

    res = run_cli("simulate", "--config", cfg, "--out", out, "--seed", 6)
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
        res = run_cli("simulate", "--config", cfg, "--out", tmp_path)
        assert res.returncode == 2, broken
        assert "Traceback" not in res.stderr, broken


def test_rational_command(tmp_path):
    out = tmp_path / "run"
    res = run_cli("rational", "--rates", 1, 2, 3, 4, "-N", 5, "--out", out)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "note:" in res.stdout
    assert "[FAIL]" not in res.stdout
    manifest = json.loads((out / "rational.json").read_text())
    assert manifest["dual"]["q"] == [-0.5, pytest.approx(1 / 3)]
    assert manifest["dual"]["couplings"]["t"] == pytest.approx(1.2)
    assert "denominator" in manifest["note"]


def test_rational_command_at_larger_N(tmp_path):
    # the table of the rational family comes from the symmetric-power
    # kernel; the four-index series failed m-orthogonality here (1.4e-4)
    res = run_cli("rational", "--rates", 1, 2, 3, 4, "-N", 10, "--out", tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "[FAIL]" not in res.stdout
