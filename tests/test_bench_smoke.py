"""The benchmark runs every workload end to end and its checks pass.

``flbench/run.py`` imports flcore from this checkout, so a change that breaks
a workload (a renamed carrier method, a handshake the load generator cannot
complete, metrics that differ across carriers) fails here on every tier-1
run.  ``--seconds 0`` runs one repeat per workload: a few seconds each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted(json.loads((ROOT / "flbench" / "workloads.json").read_text())["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload):
    command = [sys.executable, "flbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-2000:]
