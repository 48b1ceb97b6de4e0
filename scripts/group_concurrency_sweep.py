"""Sweep that places ``transport.LANE_WORK``: in-process rounds run in one process or over lane processes.

Each row is one config, with its round's client work: rows x local steps x
m, summed over clients (m: the model's parameter count).  The config runs
with the threshold forced to infinity (sequential) and to 0 (lanes: K =
min(usable CPUs, clients) processes), alternating, and the median
milliseconds per round of each side are printed, round 1 of every repeat
left out.  Each run forks its own lanes, and each lane's memory is
printed, because it is not in the parent's ``ru_maxrss``: its peak RSS
(VmHWM), which counts the pages it shares with the parent it forked from,
and its private pages (smaps_rollup), both read from /proc on Linux at the
last round of the row's last run with lanes.  Both sides run their client
rounds on one BLAS thread.  The last two rows are the in-process benchmark
workloads, read from flbench/workloads.json.  Run from the repository root:

    python3 scripts/group_concurrency_sweep.py [--repeats 5] [--rounds 8]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from flcore import transport  # noqa: E402
from flcore.config import build_data, parse_config  # noqa: E402
from flcore.models import param_count  # noqa: E402
from flcore.runner import train  # noqa: E402

MLP_SMALL = {"kind": "mlp1", "input_dim": 20, "output_dim": 10, "hidden_dim": 64}
MLP_WIDE = {"kind": "mlp1", "input_dim": 64, "output_dim": 10, "hidden_dim": 128}
LINEAR_WIDE = {"kind": "linear-regression", "input_dim": 100_000, "output_dim": 1}
ALGOS = {
    "iiadmm": {"kind": "iiadmm", "rho": 2.0, "zeta": 0.5, "batch_size": 32},
    "iceadmm": {"kind": "iceadmm", "rho": 2.0, "zeta": 1.0},
    "fedavg": {"kind": "fedavg", "eta": 0.01, "beta": 0.9, "batch_size": 16},
}
# (model, algorithm, clients, rows per client, local steps)
ROWS = [
    (MLP_SMALL, "iiadmm", 4, 25, 1),
    (MLP_SMALL, "iiadmm", 8, 50, 1),
    (LINEAR_WIDE, "fedavg", 2, 8, 1),
    (MLP_SMALL, "iiadmm", 8, 100, 2),
    (MLP_SMALL, "iiadmm", 8, 250, 2),
    (LINEAR_WIDE, "fedavg", 2, 32, 1),
    (MLP_WIDE, "iceadmm", 2, 100, 5),
    (MLP_SMALL, "iiadmm", 8, 500, 2),
    (LINEAR_WIDE, "fedavg", 2, 128, 1),
    (MLP_SMALL, "iiadmm", 8, 1000, 2),
    (MLP_WIDE, "iceadmm", 2, 400, 5),
    (MLP_SMALL, "iceadmm", 64, 80, 5),
]
WORKLOADS = ("dispatch-mlp", "fullbatch-iceadmm")


def config(model: dict, algo: str, clients: int, rows: int, local_steps: int, rounds: int):
    source = "synthetic-regression" if model["kind"] == "linear-regression" else "synthetic-blobs"
    return parse_config(
        {
            "model": model,
            "algo": {**ALGOS[algo], "local_steps": local_steps, "rounds": rounds},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
            # A 0.2 test split leaves clients x rows training rows.
            "data": {"source": source, "n": clients * rows * 5 // 4, "input_dim": model["input_dim"], "classes": 10},
            "run": {"clients": clients, "seed": 0},
        }
    )


def workload(name: str, rounds: int):
    with open(os.path.join(ROOT, "flbench", "workloads.json")) as f:
        raw = json.load(f)["workloads"][name]["config"]
    return parse_config({**raw, "algo": {**raw["algo"], "rounds": rounds}, "run": {**raw["run"], "seed": 0}})


def round_ms(cfg, threshold: float) -> tuple[list[float], list[dict[str, float]]]:
    """Milliseconds of rounds 2.. of one run with the lane threshold set, and each lane's memory at its last round."""
    transport.LANE_WORK = threshold
    ends = [time.perf_counter()]
    memory = []

    def on_round_end(t, w, duals, carrier):
        ends.append(time.perf_counter())
        if t == cfg.algo.rounds:
            memory.extend(lane_memory_mb(lane.pid) for lane, _ in carrier._lanes)

    train(cfg, on_round_end=on_round_end)
    return [1e3 * (b - a) for a, b in zip(ends[1:], ends[2:])], memory


def lane_memory_mb(pid: int) -> dict[str, float]:
    """A lane's peak RSS, which counts the pages it shares with its parent, and its private pages now."""
    with open(f"/proc/{pid}/status") as f:
        peak = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    with open(f"/proc/{pid}/smaps_rollup") as f:
        private = sum(int(line.split()[1]) for line in f if line.startswith(("Private_Clean:", "Private_Dirty:")))
    return {"peak_rss": round(peak / 1024, 1), "private": round(private / 1024, 1)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="alternating runs per side and row")
    parser.add_argument("--rounds", type=int, default=8, help="rounds per run; round 1 is left out")
    args = parser.parse_args()
    rows = [(f"{model['kind']} {algo} {clients}x{rows} L={steps}", config(model, algo, clients, rows, steps, args.rounds))
            for model, algo, clients, rows, steps in ROWS]
    rows += [(name, workload(name, args.rounds)) for name in WORKLOADS]
    for name, cfg in rows:
        m = param_count(cfg.model)
        work = build_data(cfg)[0].size * cfg.algo.local_steps * m
        times: dict[str, list[float]] = {"sequential": [], "lanes": []}
        for _ in range(args.repeats):
            times["sequential"] += round_ms(cfg, float("inf"))[0]
            ms, lane_mb = round_ms(cfg, 0)
            times["lanes"] += ms
        medians = {side: round(statistics.median(ms), 2) for side, ms in times.items()}
        print(json.dumps({"row": name, "m": m, "work": work, "ms_per_round": medians,
                          "lanes_faster": medians["lanes"] < medians["sequential"],
                          "lane_mb": lane_mb}), flush=True)


if __name__ == "__main__":
    main()
