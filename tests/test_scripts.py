"""The measurement scripts under ``scripts/`` run end to end and print what they promise.

Timings are not asserted: a loaded host may run them at any speed.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from flcore import transport

ROOT = Path(__file__).resolve().parents[1]


def test_thread_scaling_prints_both_medians():
    command = [sys.executable, "scripts/thread_scaling.py", "--input-dim", "2000", "--rounds", "3"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["input_dim"] == 2000 and result["rounds"] == 3
    assert result["alone_ms_p50"] > 0 and result["two_threads_ms_p50"] > 0


@pytest.mark.skipif(not Path("/proc/self/smaps_rollup").is_file(), reason="lane memory is read from /proc")
def test_group_concurrency_sweep_reads_each_lanes_memory(monkeypatch):
    spec = importlib.util.spec_from_file_location("group_concurrency_sweep", ROOT / "scripts" / "group_concurrency_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(transport, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(transport, "LANE_WORK", transport.LANE_WORK)  # restored after the sweep forces it to 0
    ms, memory = sweep.round_ms(sweep.config(sweep.MLP_SMALL, "iiadmm", 3, 10, 1, 3), 0)
    assert len(ms) == 2 and len(memory) == 2  # rounds 2 and 3; two lanes
    assert all(set(entry) == {"peak_rss", "private"} for entry in memory)
