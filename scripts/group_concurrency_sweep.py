"""Sweep that places ``transport.CONCURRENT_WORK``: in-process rounds with groups run one after another or concurrently.

Each row is a run of ICEADMM clients, each its own group, whose every
gradient call does rows x m work (m: the model's parameter count).  The
same config runs with the threshold forced to infinity (sequential) and to 0
(concurrent, striped over min(groups, CPUs) lanes), alternating, and the
median milliseconds per round are printed, round 1 of every repeat left out.
Both sides run their client rounds on one BLAS thread.  Run from the
repository root:

    python3 scripts/group_concurrency_sweep.py [--repeats 7] [--rounds 8]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from flcore import transport  # noqa: E402
from flcore.config import parse_config  # noqa: E402
from flcore.models import ModelSpec, param_count  # noqa: E402
from flcore.runner import train  # noqa: E402

# (input_dim, hidden_dim, clients, rows per client)
ROWS = [
    (64, 128, 2, 150),
    (64, 128, 2, 200),
    (64, 128, 2, 250),
    (64, 128, 2, 300),
    (64, 128, 2, 500),
    (64, 128, 2, 1000),
    (20, 64, 8, 200),
    (20, 64, 16, 300),
    (20, 64, 8, 500),
    (20, 64, 8, 700),
    (20, 64, 4, 1000),
    (20, 64, 4, 1100),
    (20, 64, 4, 2000),
]


def config(input_dim: int, hidden_dim: int, clients: int, rows: int, rounds: int):
    return parse_config(
        {
            "model": {"kind": "mlp1", "input_dim": input_dim, "output_dim": 10, "hidden_dim": hidden_dim},
            "algo": {"kind": "iceadmm", "rho": 2.0, "zeta": 1.0, "local_steps": 5, "rounds": rounds},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
            # A 0.2 test split leaves clients x rows training rows.
            "data": {"source": "synthetic-blobs", "n": clients * rows * 5 // 4, "input_dim": input_dim, "classes": 10},
            "run": {"clients": clients, "seed": 0},
        }
    )


def round_ms(cfg, threshold: float) -> list[float]:
    """Milliseconds of rounds 2.. of one run with the concurrency threshold set."""
    transport.CONCURRENT_WORK = threshold
    ends = [time.perf_counter()]
    train(cfg, on_round_end=lambda *_: ends.append(time.perf_counter()))
    return [1e3 * (b - a) for a, b in zip(ends[1:], ends[2:])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="alternating runs per side and row")
    parser.add_argument("--rounds", type=int, default=8, help="rounds per run; round 1 is left out")
    args = parser.parse_args()
    for input_dim, hidden_dim, clients, rows in ROWS:
        cfg = config(input_dim, hidden_dim, clients, rows, args.rounds)
        m = param_count(ModelSpec("mlp1", input_dim, 10, hidden_dim))
        times: dict[str, list[float]] = {"sequential": [], "concurrent": []}
        for _ in range(args.repeats):
            times["sequential"] += round_ms(cfg, float("inf"))
            times["concurrent"] += round_ms(cfg, 0)
        medians = {side: round(statistics.median(ms), 2) for side, ms in times.items()}
        print(json.dumps({"model": f"mlp1 {input_dim}-{hidden_dim}-10", "m": m, "clients": clients, "rows": rows,
                          "work_per_call": rows * m, "ms_per_round": medians}), flush=True)


if __name__ == "__main__":
    main()
