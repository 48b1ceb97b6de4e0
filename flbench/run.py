"""flcore benchmark: round time, set-up, bytes and memory, plus a per-layer trace.

Run from the repository root:

    python3 flbench/run.py --workload dispatch-mlp --seed 0 --seconds 40 --trace 0

Workloads are defined in ``workloads.json``.  A run is one fresh process that
calls ``flcore.runner.train`` again and again on one workload until
``--seconds`` are used up.  Every repeat is a complete federation with the
workload's fixed round count and ``run.seed`` set to ``--seed``:

* set-up is timed from entering ``train`` until its first ``broadcast_model``
  call (data synthesis, partitioning, worker construction, handshake);
* round t is timed from the end of round t-1 (``on_round_end``) to its own
  end; round 1 of every repeat is warm-up and left out;
* the metrics lines of every repeat must be byte-identical, hold finite
  losses and the exact frame byte counts, and for wide-tcp equal an
  in-process run of the same config (carrier invariance).  A round that
  raises, times out or mismatches fails together with every later round of
  its repeat, and the run stops.

wide-tcp serves from this process; its two clients run as threads of one
load-generator process (``loadgen.py``) with single-threaded BLAS, started and
imported before any clock runs.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` repeats alternate between untraced and traced (see
``tracing.py``) and the last line holds the per-layer metrics.  The lines
before it give sample counts, the machine and the checks.  The exit code is
0 when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "flcore", "__init__.py")):
    sys.exit(f"flbench: no flcore package under {SRC}; run from a full checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from flcore.config import build_data, parse_config  # noqa: E402
from flcore.models import param_count  # noqa: E402
from flcore.runner import metrics_line, train  # noqa: E402
from flcore.transport import HEADER_SIZE, InProcessCarrier, TcpServerCarrier, payload_size  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "samples_per_s": "1/s",
    "bytes_up_per_round": "B",
    "bytes_down_per_round": "B",
    "peak_rss_mb": "MB",
}
LOADGEN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10
# Time a run may take beyond --seconds before its current repeat is failed,
# so that the process ends well within three minutes.
GRACE_S = 60


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)["workloads"]


def workload_config(spec: dict, seed: int) -> dict:
    config = json.loads(json.dumps(spec["config"]))
    config["algo"]["rounds"] = spec["rounds"]
    config["run"]["seed"] = seed
    return config


def machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "under_test": {name: os.environ.get(name, "default") for name in LOADGEN_ENV},
        "load_generator": LOADGEN_ENV,
    }


# --- timing from outside train -------------------------------------------------


class RoundClock:
    """Times one repeat: the first broadcast, then the end of every round.

    Used as ``train``'s ``on_round_end`` hook; while entered it also wraps both
    carriers' ``broadcast_model`` to catch the end of set-up.
    """

    def __init__(self):
        self.first_ns: int | None = None
        self.ends_ns: list[int] = []
        self.cpu_ns: list[int] = []
        self._saved: list = []

    def __call__(self, round_num, w, duals, carrier) -> None:
        self.ends_ns.append(time.perf_counter_ns())
        self.cpu_ns.append(time.process_time_ns())

    def _probe(self, original):
        def broadcast_model(carrier, round_num, w):
            if self.first_ns is None:
                self.first_ns = time.perf_counter_ns()
            return original(carrier, round_num, w)

        return broadcast_model

    def __enter__(self):
        for cls in (InProcessCarrier, TcpServerCarrier):
            original = cls.__dict__["broadcast_model"]
            self._saved.append((cls, original))
            cls.broadcast_model = self._probe(original)
        return self

    def __exit__(self, *exc):
        for cls, original in self._saved:
            cls.broadcast_model = original
        self._saved.clear()
        return False


@dataclass
class Repeat:
    traced: bool
    setup_ns: int | None = None
    ends_ns: list[int] = field(default_factory=list)
    cpu_ns: list[int] = field(default_factory=list)
    first_ns: int | None = None
    lines: list[str] = field(default_factory=list)
    error: str | None = None
    spans: list[tuple] = field(default_factory=list)

    def walls_ns(self) -> list[int]:
        """Wall time of every completed round, round 1 first."""
        if self.first_ns is None:
            return []
        starts = [self.first_ns] + self.ends_ns[:-1]
        return [end - start for start, end in zip(starts, self.ends_ns)]

    def timed_ms(self) -> list[float]:
        return [ns / 1e6 for ns in self.walls_ns()[1:]]

    def cpu_wall_ratio(self) -> float | None:
        if len(self.ends_ns) < 2:
            return None
        return (self.cpu_ns[-1] - self.cpu_ns[0]) / (self.ends_ns[-1] - self.ends_ns[0])


class LoadGenerator:
    """The wide-tcp client process, speaking loadgen.py's line protocol."""

    # Identifiers of generator spans are shifted so they never collide with ours.
    ID_OFFSET = 1 << 40

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "loadgen.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, **LOADGEN_ENV},
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, name="loadgen-reader", daemon=True)
        self._reader.start()
        try:
            if not self._next().get("ready"):
                raise RuntimeError("load generator did not report ready")
        except BaseException:
            self.close()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _next(self) -> dict:
        try:
            line = self._lines.get(timeout=self.timeout_s)
        except queue.Empty:
            raise TimeoutError(f"load generator silent for {self.timeout_s:.0f} s") from None
        if line is None:
            raise RuntimeError(f"load generator exited with code {self.proc.wait()}")
        return json.loads(line)

    def _send(self, request: dict) -> None:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def request(self, port: int, config: dict, traced: bool) -> None:
        self._send({"port": port, "config": config, "trace": traced})

    def reference(self, config: dict) -> list[str]:
        """Metrics lines of an in-process run of ``config`` inside the generator."""
        self._send({"reference": True, "config": config})
        reply = self._next()
        if not reply["ok"]:
            raise RuntimeError(f"reference run failed: {reply['error']}")
        return reply["lines"]

    def reply(self) -> tuple[str | None, list[tuple]]:
        """(error or None, the generator's spans re-keyed into this process)."""
        reply = self._next()
        off = self.ID_OFFSET
        spans = [
            (sid + off, parent + off if parent else 0, name, start, end, own, rnd, f"loadgen-{tid}", count)
            for sid, parent, name, start, end, own, rnd, tid, count in reply["spans"]
        ]
        return (None if reply["ok"] else reply["error"]), spans

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=self.timeout_s)


def run_repeat(config, config_dict: dict, traced: bool, tracer: Tracer | None, loadgen) -> Repeat:
    rep = Repeat(traced)
    clock = RoundClock()
    carrier = None
    requested = False
    with clock:
        if traced:
            tracer.set_round(0)
            tracer.install()
        try:
            if loadgen is not None:
                carrier = TcpServerCarrier("127.0.0.1:0", config.clients, handshake_timeout_s=config.timeout_s)
                loadgen.request(carrier.address[1], config_dict, traced)
                requested = True
            start = time.perf_counter_ns()
            record = train(config, carrier=carrier, on_round_end=clock)
            rep.lines = [metrics_line(m) for m in record.metrics]
        except Exception as exc:  # counted as failed rounds, never hidden
            rep.error = repr(exc)
            if carrier is not None:
                carrier.close()
        finally:
            if traced:
                tracer.uninstall()
                rep.spans = tracer.take()
    rep.first_ns, rep.ends_ns, rep.cpu_ns = clock.first_ns, clock.ends_ns, clock.cpu_ns
    if clock.first_ns is not None:
        rep.setup_ns = clock.first_ns - start
    if requested:
        try:
            error, spans = loadgen.reply()
        except (TimeoutError, RuntimeError) as exc:
            error, spans = repr(exc), []
        rep.error = rep.error or error
        rep.spans += spans
    return rep


def _overrun(signum, frame):
    raise TimeoutError(f"run exceeded its time limit by {GRACE_S} s")


def run_repeats(config, config_dict: dict, seconds: float, tracer: Tracer | None, loadgen) -> list[Repeat]:
    """Repeat until the next repeat would end past ``seconds``; at least two.

    A repeat still running ``GRACE_S`` after ``seconds`` is interrupted and fails.
    """
    repeats: list[Repeat] = []
    begin = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(math.ceil(seconds) + GRACE_S)
    try:
        while True:
            traced = tracer is not None and len(repeats) % 2 == 1
            repeats.append(run_repeat(config, config_dict, traced, tracer, loadgen))
            if repeats[-1].error:
                return repeats
            elapsed = time.perf_counter() - begin
            if len(repeats) >= 2 and elapsed * (len(repeats) + 1) / len(repeats) > seconds:
                return repeats
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# --- correctness ---------------------------------------------------------------


def expected_bytes(config) -> tuple[int, int]:
    """Exact (up, down) frame bytes of one round for this config."""
    m = param_count(config.model)
    up = config.clients * (HEADER_SIZE + payload_size(config.algo.kind, m))
    down = config.clients * (HEADER_SIZE + 8 + 8 * m)
    return up, down


def first_bad_round(lines: list[str], reference: list[str], expected: tuple[int, int]) -> int | None:
    """0-based index of the first round that is wrong, or None."""
    for i, line in enumerate(lines):
        if i >= len(reference) or line != reference[i]:
            return i
        obj = json.loads(line)
        finite = all(
            obj[key] is None or math.isfinite(obj[key]) for key in ("train_loss", "test_acc", "consensus_residual")
        )
        if not finite or (obj["bytes_up"], obj["bytes_down"]) != expected:
            return i
    return None if len(lines) == len(reference) else len(lines)


def check(repeats: list[Repeat], rounds: int, reference: list[str] | None, expected) -> tuple[int, int, list[str]]:
    """(rounds attempted, rounds failed, notes); ``reference`` defaults to repeat 1."""
    attempted = failed = 0
    notes = []
    if reference is None:
        reference = next((r.lines for r in repeats if not r.error), [])
    for i, rep in enumerate(repeats, 1):
        attempted += rounds
        if rep.error:
            failed += rounds - len(rep.ends_ns)
            notes.append(f"repeat {i}: {rep.error}")
            continue
        bad = first_bad_round(rep.lines, reference, expected)
        if bad is not None:
            failed += rounds - bad
            notes.append(f"repeat {i}: round {bad + 1} differs from the reference or fails a check")
    return attempted, failed, notes


# --- metrics -------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile up to 90 with TAIL_SAMPLES values beyond it (nearest rank).

    Runs too short for that fall back to the median.
    """
    n = len(values)
    pct = max(50, min(90, math.floor(100 * (1 - TAIL_SAMPLES / n))))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(values)[rank - 1]


def end_to_end(repeats, samples_per_round: int, peak_rss_mb: float, expected) -> tuple[dict, list[str]]:
    ok = [r for r in repeats if not r.error and not r.traced]
    walls = [ms for r in ok for ms in r.timed_ms()]
    setups = [r.setup_ns / 1e9 for r in ok]
    pct, tail = tail_percentile(walls)
    values = {
        "setup_s": statistics.median(setups),
        "round_ms_p50": statistics.median(walls),
        "round_ms_p90": tail,
        "samples_per_s": samples_per_round * len(walls) / (sum(walls) / 1e3),
        "bytes_up_per_round": float(expected[0]),
        "bytes_down_per_round": float(expected[1]),
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(walls)
    notes = [
        f"setup_s: median of {len(setups)} set-ups (one per repeat)",
        f"round_ms_p50: median of {n} timed rounds ({len(ok)} repeats, round 1 of each left out)",
        f"round_ms_p90: p{pct} of {n} timed rounds (nearest rank; the highest percentile <= 90 "
        f"with {TAIL_SAMPLES} rounds beyond it)",
        f"samples_per_s: {samples_per_round} samples per round (sum of n_p times local passes) over "
        f"{n} timed rounds",
        "bytes_up_per_round, bytes_down_per_round: frame bytes from RoundMetrics, equal in every round",
        "peak_rss_mb: ru_maxrss of this process (the server for wide-tcp)",
    ]
    return values, notes


def per_layer(repeats) -> dict:
    main_thread = threading.main_thread().ident
    rows, setups = [], []
    for rep in repeats:
        if not rep.traced or rep.error:
            continue
        names = {span[0]: span[2] for span in rep.spans}
        by_round: dict[int, list] = {}
        for span in rep.spans:
            by_round.setdefault(span[6], []).append(span)
        walls = rep.walls_ns()
        for t in range(2, len(walls) + 1):
            rows.append(layers.round_values(by_round.get(t, []), names, walls[t - 1], main_thread))
        setups.append(layers.setup_values(rep.spans, main_thread))
    values = layers.summarize(rows, setups)
    untraced = [r for r in repeats if not r.traced and not r.error]
    plain = statistics.median(ms for r in untraced for ms in r.timed_ms())
    traced = statistics.median(ms for r in repeats if r.traced and not r.error for ms in r.timed_ms())
    values["trace.overhead_pct"] = (traced - plain) / plain * 100.0
    values["process.cpu_wall_ratio"] = statistics.median(r.cpu_wall_ratio() for r in untraced)
    return values


# --- entry point ---------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="flcore round-time benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(load_workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_workloads()[args.workload]
    config_dict = workload_config(spec, args.seed)
    config = parse_config(config_dict)
    expected = expected_bytes(config)
    samples_per_round = build_data(config)[0].size * config.algo.local_steps
    print("machine:", json.dumps(machine()))
    print(f"workload: {args.workload} seed={args.seed} carrier={spec['carrier']} rounds/repeat={spec['rounds']}")

    tracer = Tracer() if args.trace else None
    loadgen = LoadGenerator(config.timeout_s + 10.0) if spec["carrier"] == "tcp" else None
    reference = None
    try:
        repeats = run_repeats(config, config_dict, args.seconds, tracer, loadgen)
        if loadgen is not None:
            # Carrier invariance.  It runs in the generator because the wide-tcp
            # trajectory depends on the BLAS thread count of the clients.
            try:
                reference = loadgen.reference(config_dict)
            except (TimeoutError, RuntimeError) as exc:
                reference = []
                print(f"reference in-process run failed: {exc}")
    finally:
        if loadgen is not None:
            loadgen.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, notes = check(repeats, spec["rounds"], reference, expected)
    good = [r for r in repeats if not r.error]
    measured = any(r.timed_ms() for r in good if not r.traced)
    if not measured:
        notes.append("no untraced repeat completed a timed round")
    if args.trace and not any(r.traced for r in good):
        measured = False
        notes.append("no traced repeat completed")

    metrics, units = {}, {}
    if measured and args.trace:
        metrics = per_layer(repeats)
        units = layers.PER_LAYER
        if metrics["trace.self_sum_err_pct"] > layers.SELF_SUM_LIMIT_PCT:
            notes.append(
                f"span self times miss a round's wall time by {metrics['trace.self_sum_err_pct']:.2f}% "
                f"(limit {layers.SELF_SUM_LIMIT_PCT}%)"
            )
        print(f"samples: {sum(r.traced for r in good)} traced and {sum(not r.traced for r in good)} untraced "
              "repeats; per-round values are medians over the traced timed rounds")
    elif measured:
        metrics, sample_notes = end_to_end(repeats, samples_per_round, peak_rss_mb, expected)
        units = END_TO_END
        for line in sample_notes:
            print("samples:", line)
    for i, rep in enumerate(good, 1):
        timed = rep.timed_ms()
        if timed:
            print(f"repeat {i}: {'traced' if rep.traced else 'untraced'}, set-up {rep.setup_ns / 1e6:.1f} ms, "
                  f"median round {statistics.median(timed):.2f} ms over {len(timed)} rounds")
    if good:
        lines = good[0].lines
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        print(f"metrics lines: {len(lines)} per repeat, sha256 {digest}, last: {lines[-1]}")
    for note in notes:
        print("check failed:", note)
    correct = not notes and failed == 0
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
