"""A seeded sweep over valid models: `verify --level full` exits 0 on every
draw, raises no RuntimeWarning, and writes a manifest whose pass flags are
residual <= tol."""

import json
import warnings

import pytest
from conftest import sweep_models

from mvkraw import cli

DRAWS = list(sweep_models(20260815, 60))


@pytest.mark.parametrize("params", DRAWS, ids=[
    f"draw{i:02d}-n{p.n}-N{p.N}" for i, p in enumerate(DRAWS)])
def test_verify_full_passes_on_seeded_models(tmp_path, capsys, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"schema": 1, "n": params.n, "N": params.N,
                                "p": list(params.p), "q": list(params.q)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["verify", "--level", "full", "--params", str(path),
                       "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().out
    report = json.loads((tmp_path / "verify.json").read_text())["report"]
    assert report["passed"] is True
    for check in report["checks"]:
        assert check["passed"] == (check["residual"] <= check["tol"]), check
