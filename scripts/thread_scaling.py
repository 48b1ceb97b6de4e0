"""Client round time of the wide-tcp config, for one client alone and for two clients as threads of one process.

A client round is what a TCP client does between GLOBAL_MODEL and its
replies: ``handle_global``, ``train_loss`` at the outgoing z, and the
LOCAL_UPDATE payload encode.  Each round gets the initial model as its w;
a FedAvg client carries no state, so every round does the same work.  The
script runs ``--rounds`` rounds of client 0 alone, then ``--rounds`` rounds
of clients 0 and 1 as two threads that start each round together, and prints
the median milliseconds per round of each (over every thread's rounds 2 on;
round 1 is warm-up) as one JSON line.  Two threads that run their kernels in
parallel take about the time of one client alone.  Run from the repository
root:

    python3 scripts/thread_scaling.py [--input-dim 100000] [--rounds 20] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from flcore.config import initial_model, parse_config  # noqa: E402
from flcore.transport import decode_join_ack, encode_join_ack, encode_update_payload  # noqa: E402
from flcore.worker import build_worker  # noqa: E402


def wide_tcp_config(input_dim: int, seed: int):
    with open(os.path.join(ROOT, "flbench", "workloads.json")) as f:
        raw = json.load(f)["workloads"]["wide-tcp"]["config"]
    raw["model"]["input_dim"] = raw["data"]["input_dim"] = input_dim
    raw["run"]["seed"] = seed
    return parse_config(raw)


def client_rounds(worker, w, rounds: int, barrier: threading.Barrier, out: list) -> None:
    """``rounds`` client rounds, each started at ``barrier``; appends each round's milliseconds to ``out``."""
    for t in range(1, rounds + 1):
        barrier.wait()
        start = time.perf_counter()
        arrays = worker.handle_global(t, w)
        worker.train_loss(arrays[0])
        encode_update_payload(arrays)
        out.append((time.perf_counter() - start) * 1e3)


def median_round_ms(workers, w, rounds: int) -> float:
    """Median round milliseconds over rounds 2.. of every worker, each worker in a thread of its own."""
    barrier = threading.Barrier(len(workers))
    times = [[] for _ in workers]
    threads = [
        threading.Thread(target=client_rounds, args=(worker, w, rounds, barrier, out))
        for worker, out in zip(workers, times)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return statistics.median(ms for out in times for ms in out[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input-dim", type=int, default=100_000)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: round 1 is warm-up")
    config = wide_tcp_config(args.input_dim, args.seed)
    settings = decode_join_ack(encode_join_ack(config))
    workers = [build_worker(config, cid) for cid in range(2)]
    for worker in workers:
        worker.handle_join_ack(settings)
    w = initial_model(config)
    alone = median_round_ms(workers[:1], w, args.rounds)
    pair = median_round_ms(workers, w, args.rounds)
    print(json.dumps({"input_dim": args.input_dim, "rounds": args.rounds, "alone_ms_p50": alone, "two_threads_ms_p50": pair}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
