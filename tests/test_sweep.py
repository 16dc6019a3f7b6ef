"""A seeded sweep over valid models, run through `cli.main`.

`verify --level full` exits 0 on every draw.  `spectrum`, `table --level
full` and `simulate` in uniformization mode, from the origin and from half
at each end of the lattice, exit with a documented code: 0; 1 with a
`[FAIL]` line naming the failed check; or 4 with one `error:` line.  No
run raises a RuntimeWarning, every manifest's pass flags are residual <=
tol, and every `tv` is in [0, 1] and every `kl` >= 0."""

import json
import math
import warnings

import pytest
from conftest import sweep_models

from mvkraw import ModelParams, cli



def _cluster(q: float, *ulps: int) -> tuple:
    """q and, for each k of `ulps`, the float k ulps above q (in its binade)."""
    return tuple(q + k * math.ulp(q) for k in (0, *ulps))


# fixed models whose q cluster within 1-4 ulps, at scales 1e-3..1e3
CLUSTERS = [
    ModelParams(2, 20, (1e-3, 2e-3), _cluster(1e-3, 1)),
    ModelParams(2, 30, (7e2, 3e2), _cluster(1e3, 3)),
    ModelParams(3, 10, (1.0, 2.0, 1.5), _cluster(1.0, 1, 2)),
    ModelParams(3, 8, (2e-3, 5e-3, 1e-3), (*_cluster(3e-3, 4), 7e-3)),
    ModelParams(4, 6, (1.0, 2.0, 1.5, 0.7), (*_cluster(1e3, 2, 4), 5e2)),
    ModelParams(4, 4, (3e1, 1e-1, 4e0, 2e2), _cluster(0.1, 1, 2, 3)),
]
DRAWS = list(sweep_models(20260815, 60)) + CLUSTERS
IDS = ([f"draw{i:02d}-n{p.n}-N{p.N}" for i, p in enumerate(DRAWS[:60])]
       + [f"ulps{i}-n{p.n}-N{p.N}" for i, p in enumerate(CLUSTERS)])


def _params(params) -> dict:
    return {"schema": 1, "n": params.n, "N": params.N,
            "p": list(params.p), "q": list(params.q)}


def _run(capsys, argv, tmp_path) -> int:
    """cli.main(argv + --out) with RuntimeWarning an error; a documented
    exit code, and its console lines."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main([*argv, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc in (0, 1, 4), (rc, out, err)
    if rc == 1:
        assert any(line.startswith("[FAIL] ") for line in out.splitlines()), out
    if rc == 4:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    return rc


def _write_params(tmp_path, params) -> str:
    path = tmp_path / "params.json"
    path.write_text(json.dumps(_params(params)))
    return str(path)


def _flags_match(report: dict) -> None:
    assert report["passed"] == all(c["passed"] for c in report["checks"])
    for check in report["checks"]:
        assert check["passed"] == (check["residual"] <= check["tol"]), check


@pytest.mark.parametrize("params", DRAWS, ids=IDS)
def test_verify_full_passes_on_seeded_models(tmp_path, capsys, params):
    rc = _run(capsys, ["verify", "--level", "full",
                       "--params", _write_params(tmp_path, params)], tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())["report"]
    assert report["passed"] is True
    _flags_match(report)


@pytest.mark.parametrize("params", DRAWS, ids=IDS)
def test_spectrum_on_seeded_models(tmp_path, capsys, params):
    rc = _run(capsys, ["spectrum", "--params", _write_params(tmp_path, params)],
              tmp_path)
    if rc != 4:
        report = json.loads((tmp_path / "spectrum.json").read_text())["report"]
        _flags_match(report)
        assert (rc == 0) == report["passed"]


@pytest.mark.parametrize("params", DRAWS, ids=IDS)
def test_table_full_on_seeded_models(tmp_path, capsys, params):
    rc = _run(capsys, ["table", "--level", "full",
                       "--params", _write_params(tmp_path, params)], tmp_path)
    if rc != 4:
        manifest = json.loads((tmp_path / "table.json").read_text())
        # the one check of `table`: the generating function against the kernel
        diff = manifest["summary"]["generating_function_max_abs_diff"]
        assert (rc == 0) == (diff <= manifest["tol"]), (rc, diff)
        assert ("gen_oracle.csv" in manifest["outputs"]) == (rc == 0)


def _simulate(tmp_path, capsys, params, time, initial) -> str | None:
    """`simulate` in uniformization mode, 4 steps: exit 0 or 4, and on 0 a
    tv in [0, 1] and a kl >= 0 on each of the 5 rows; the route run."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "schema": 1, "params": _params(params), "mode": "uniformization",
        "time": time, "steps": 4, "initial": initial}))
    rc = _run(capsys, ["simulate", "--config", str(config)], tmp_path)
    assert rc != 1
    if rc == 4:
        return None
    lines = (tmp_path / "evolution.csv").read_text().splitlines()
    assert lines[1] == "time,tv,kl" and len(lines) == 7
    for line in lines[2:]:
        _, tv, kl = map(float, line.split(","))
        assert 0.0 <= tv <= 1.0 and kl >= 0.0, line
    return json.loads((tmp_path / "simulate.json").read_text())["summary"]["route"]


@pytest.mark.parametrize("params", DRAWS, ids=IDS)
def test_simulate_from_origin_on_seeded_models(tmp_path, capsys, params):
    _simulate(tmp_path, capsys, params, 10.0 / min(params.q), "origin")


@pytest.mark.parametrize("params", DRAWS, ids=IDS)
def test_simulate_from_two_points_on_seeded_models(tmp_path, capsys, params):
    # half at rank 0 and half at the last rank takes uniformization, whose
    # cost grows with the rate bound times the horizon: over 20/Lam, with
    # Lam = N max(sum p, max q), each draw makes a bounded number of jumps
    start = [0.0] * math.comb(params.N + params.n, params.n)
    start[0] = start[-1] = 0.5
    lam = params.N * max(sum(params.p), max(params.q))
    route = _simulate(tmp_path, capsys, params, 20.0 / lam, start)
    assert route in (None, "uniformization")
