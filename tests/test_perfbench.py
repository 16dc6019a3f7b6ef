"""Smoke test of the benchmark harness on its quickest setting: one round
of the Gillespie workload, checked against its own oracles."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gillespie_workload_runs_and_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gillespie",
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
