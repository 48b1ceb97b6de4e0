"""Round time of an in-process run with many small clients.

The config: an mlp1 20 -> 64 -> 10 model, IIADMM, one local step, batch 32,
80 training rows per client (``equal`` partition, 20% test split), DP on,
6 rounds.  For each client count P the config runs ``--runs`` times in this
process, and the median milliseconds per round over rounds 2..6 of every run
is printed as one JSON line; round 1 is warm-up.  The carrier decides by
itself whether the run uses lane processes, as it does for any run.  Run from
the repository root:

    python3 scripts/many_clients_round.py [--clients 64 512] [--runs 3] [--seed 0]
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

from flcore.config import parse_config  # noqa: E402
from flcore.runner import train  # noqa: E402

ROWS_PER_CLIENT = 80
ROUNDS = 6


def many_clients_config(clients: int, seed: int) -> dict:
    return {
        "model": {"kind": "mlp1", "input_dim": 20, "output_dim": 10, "hidden_dim": 64},
        "algo": {"kind": "iiadmm", "rho": 2.0, "zeta": 0.5, "local_steps": 1, "batch_size": 32, "rounds": ROUNDS},
        "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
        "data": {
            "source": "synthetic-blobs",
            "n": clients * ROWS_PER_CLIENT * 5 // 4,
            "input_dim": 20,
            "classes": 10,
            "test_fraction": 0.2,
            "partition": "equal",
        },
        "run": {"clients": clients, "seed": seed},
    }


def round_ms(config) -> list[float]:
    """Milliseconds of rounds 2..ROUNDS of one run."""
    ends = []
    begin = time.perf_counter()
    train(config, on_round_end=lambda t, w, duals, carrier: ends.append(time.perf_counter()))
    starts = [begin] + ends[:-1]
    return [(end - start) * 1e3 for start, end in zip(starts, ends)][1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, nargs="+", default=[64, 512])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for clients in args.clients:
        config = parse_config(many_clients_config(clients, args.seed))
        rounds = [ms for _ in range(args.runs) for ms in round_ms(config)]
        print(json.dumps({"clients": clients, "runs": args.runs, "round_ms_p50": statistics.median(rounds)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
