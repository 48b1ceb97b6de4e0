"""Run the benchmark over workloads and seeds and summarise the spread.

Run from the repository root:

    python3 flbench/report.py --seeds 0-9
    python3 flbench/report.py --workloads wide-tcp --seeds 0,1 --trace 1

Every (workload, seed) is one fresh ``run.py`` process, so peak memory is
per run.  The report prints each run's metrics; for the workload's last run
every metric with its unit and the sample counts behind it; and, given two
or more seeds, per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the bound in ``BENCHMARK.json``.
``--out`` writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description="flcore benchmark report")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    all_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, info = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            all_ok &= result["correct"] and result["failed"] == 0
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
        # The last run's own report: machine, every metric with its unit, sample counts.
        prefixes = ("machine:", "samples:", "check failed:") + tuple(f"{name} = " for name in runs[-1]["metrics"])
        print("\n".join(f"  {line}" for line in info if line.startswith(prefixes)))
        results[workload] = runs
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else f" bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"  {name}: median={median:.6g} {runs[0]['metrics'][name]['unit']} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f}{verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
