"""Smoke test of the benchmark harness on its quickest setting: one round
of a workload, checked against its own oracles.  `eigenbasis` runs `table`
and `verify --level full` at (2,10), (3,8) and (4,4), `numeric_eigenbasis`
at (3,20) and `rational` at N = 6, each against 60-digit oracles;
`gillespie` runs the jump chain at (2,5) and (3,20); `large-lattice` runs
`simulate` in uniformization mode from the origin at (3,80) and `verify
--level fast` at (3,20)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["eigenbasis", "gillespie", "large-lattice"])
def test_workload_runs_and_passes(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == {"setup_s", "wall_ref", "peak_rss_mb"}
    for metric in result["metrics"].values():
        assert metric["value"] > 0
