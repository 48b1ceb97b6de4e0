"""The measurement scripts under ``scripts/`` run end to end and print what they promise.

Timings are not asserted: a loaded host may run them at any speed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_thread_scaling_prints_both_medians():
    command = [sys.executable, "scripts/thread_scaling.py", "--input-dim", "2000", "--rounds", "3"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["input_dim"] == 2000 and result["rounds"] == 3
    assert result["alone_ms_p50"] > 0 and result["two_threads_ms_p50"] > 0
