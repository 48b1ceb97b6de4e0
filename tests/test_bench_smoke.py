"""The benchmark runs every workload end to end and its checks pass.

``flbench/run.py`` imports flcore from this checkout, so a change that breaks
a workload (a renamed carrier method, a handshake the load generator cannot
complete, metrics that differ across carriers) fails here on every tier-1
run.  ``--seconds 0`` runs one repeat per workload: a few seconds each.

The traced path (``--trace 1``) runs too, so a change that leaves a layer
untimed or breaks the span self-time check fails here.  wide-tcp stays at
``--trace 0``: its self-time check (the worst round's untimed share, limit
5%) is known to fail now and then on a noisy host with unchanged code, and
that is for the span recorder to mend, not for this test to forgive.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted(json.loads((ROOT / "flbench" / "workloads.json").read_text())["workloads"])


def run_and_check(workload: str, trace: str) -> None:
    command = [sys.executable, "flbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout[-2000:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload):
    run_and_check(workload, "0")


@pytest.mark.parametrize("workload", ["dispatch-mlp", "fullbatch-iceadmm"])
def test_traced_workload_runs_and_passes_its_checks(workload):
    run_and_check(workload, "1")
