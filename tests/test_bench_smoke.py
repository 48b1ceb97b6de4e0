"""The benchmark runs every workload end to end and its checks pass.

``flbench/run.py`` imports flcore from this checkout, so a change that breaks
a workload (a renamed carrier method, a handshake the load generator cannot
complete, metrics that differ across carriers) fails here on every tier-1
run.  ``--seconds 0`` runs one repeat per workload: a few seconds each.

Each run must leave no process behind: lane processes and the load
generator end with it.  The traced path (``--trace 1``) runs too, so a change that leaves a layer
untimed or breaks the span self-time check fails here.  wide-tcp stays at
``--trace 0``: its self-time check (the worst round's untimed share, limit
5%) is known to fail now and then on a noisy host with unchanged code, and
that is for the span recorder to mend, not for this test to forgive.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = sorted(json.loads((ROOT / "flbench" / "workloads.json").read_text())["workloads"])


def group_alive(pgid: int) -> bool:
    """Whether any process, a zombie included, is left in process group ``pgid``."""
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def run_and_check(workload: str, trace: str) -> None:
    command = [sys.executable, "flbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace]
    # A session of its own, so whatever the run leaves behind (a lane process, the
    # load generator) stays in its process group after it exits.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 0, stdout[-2000:] + stderr[-2000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, stdout[-2000:]
    deadline = time.monotonic() + 2.0
    while group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not group_alive(proc.pid), f"{workload} left a process behind"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload):
    run_and_check(workload, "0")


@pytest.mark.parametrize("workload", ["dispatch-mlp", "fullbatch-iceadmm"])
def test_traced_workload_runs_and_passes_its_checks(workload):
    run_and_check(workload, "1")
