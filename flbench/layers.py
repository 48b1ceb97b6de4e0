"""Per-layer metrics from the spans that ``tracing.Tracer`` records.

A layer is an flcore module.  ``GROUPS`` maps every span name to the layer
part it is charged to; a layer's self time is the sum of the self times of
its spans, so nested spans of one layer (``validate`` calling
``loss_and_grad``) are not counted twice.  Per-round values are computed for
each timed round and reported as medians across rounds; the set-up values
(``data.build.s``, ``transport.handshake.s``) are medians across repeats.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import _CODEC_DECODERS, _CODEC_ENCODERS

GROUPS = {
    "runner._run_round": "runner.round",
    "runner.loss_and_grad": "runner.eval",
    "runner.validate": "runner.eval",
    "runner.predict": "runner.eval",
    "runner.decode_vectors": "transport.codec",
    "runner.dual_update": "algorithms.server",
    "runner.fedavg_global": "algorithms.server",
    "runner.iceadmm_global": "algorithms.server",
    "runner.iiadmm_global": "algorithms.server",
    "runner.build_data": "data.build",
    "worker.build_data": "data.build",
    "worker.loss_and_grad": "models.grad",
    "worker.batches": "data.batches",
    "worker.perturb_output": "privacy.noise",
    "ClientWorker.handle_join_ack": "worker.join",
    "ClientWorker.handle_global": "worker.update",
    "algorithms.clip_gradient": "privacy.clip",
    "algorithms.fedavg_local": "algorithms.local",
    "algorithms.iiadmm_local": "algorithms.local",
    "algorithms.iceadmm_local": "algorithms.local",
    "rng.stream": "rng.stream",
    "TcpClientChannel.join": "transport.join",
    "TcpClientChannel.recv": "worker.recv",
    "TcpClientChannel.send_update": "transport.send",
}
GROUPS.update({f"transport.{name}": "transport.codec" for name in _CODEC_ENCODERS + _CODEC_DECODERS})
_CARRIER_GROUPS = {
    "start": "transport.handshake",
    "broadcast_model": "transport.broadcast",
    "gather_updates": "transport.gather",
    "finish": "transport.finish",
}
for _cls in ("InProcessCarrier", "TcpServerCarrier"):
    GROUPS.update({f"{_cls}.{method}": group for method, group in _CARRIER_GROUPS.items()})

# name -> unit, in the order of BENCHMARK.json.
PER_LAYER = {
    "models.grad.calls": "count",
    "models.grad.self_ms": "ms",
    "models.grad.us_per_call": "us",
    "algorithms.local.self_ms": "ms",
    "algorithms.server.self_ms": "ms",
    "privacy.clip.calls": "count",
    "privacy.clip.self_ms": "ms",
    "privacy.clip.clipped_ratio": "ratio",
    "privacy.noise.self_ms": "ms",
    "privacy.noise.values": "count",
    "data.batches.self_ms": "ms",
    "data.batches.rows": "count",
    "data.build.s": "s",
    "rng.stream.calls": "count",
    "rng.stream.self_ms": "ms",
    "transport.codec.self_ms": "ms",
    "transport.codec.bytes": "B",
    "transport.frames": "count",
    "transport.broadcast.ms": "ms",
    "transport.gather.ms": "ms",
    "transport.gather.wait_ms": "ms",
    "transport.handshake.s": "s",
    "worker.update.ms_max": "ms",
    "worker.update.ms_sum": "ms",
    "worker.recv_wait_ms": "ms",
    "runner.eval.self_ms": "ms",
    "runner.eval.calls": "count",
    "runner.round.self_ms": "ms",
    "process.cpu_wall_ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.self_sum_err_pct": "%",
}

SELF_SUM_LIMIT_PCT = 5.0


def _ms(ns: int) -> float:
    return ns / 1e6


def round_values(spans, names: dict, wall_ns: int, main_thread) -> dict[str, float]:
    """Per-layer values of one round from that round's spans.

    ``trace.self_sum_err_pct`` compares the self times of every span on the
    server's main thread with the round's wall time measured outside the
    trace; since self times partition their root spans, a gap means time
    that no span covers.  ``names`` maps span ids to names across the whole
    repeat, so a parent recorded in another round is still found.
    """
    self_ns = Counter()
    calls = Counter()
    amount = Counter()
    total_ns = Counter()
    updates_ns = []
    recv_ns = defaultdict(int)
    main_self_ns = 0
    codec_bytes = frames = eval_calls = 0
    for span_id, parent, name, start, end, own, _round, thread, count in spans:
        group = GROUPS[name]
        parent_group = GROUPS.get(names.get(parent))
        self_ns[group] += own
        total_ns[group] += end - start
        calls[group] += 1
        amount[group] += count
        if thread == main_thread:
            main_self_ns += own
        if group == "worker.update":
            updates_ns.append(end - start)
        elif group == "worker.recv":
            recv_ns[thread] += end - start
        elif group == "transport.codec" and parent_group != "transport.codec":
            codec_bytes += count
        elif group == "runner.eval" and parent_group != "runner.eval":
            eval_calls += 1
        if name == "transport.encode_envelope":
            frames += 1
    grad_calls = calls["models.grad"]
    clip_calls = calls["privacy.clip"]
    return {
        "models.grad.calls": grad_calls,
        "models.grad.self_ms": _ms(self_ns["models.grad"]),
        "models.grad.us_per_call": self_ns["models.grad"] / 1e3 / grad_calls if grad_calls else 0.0,
        "algorithms.local.self_ms": _ms(self_ns["algorithms.local"]),
        "algorithms.server.self_ms": _ms(self_ns["algorithms.server"]),
        "privacy.clip.calls": clip_calls,
        "privacy.clip.self_ms": _ms(self_ns["privacy.clip"]),
        "privacy.clip.clipped_ratio": amount["privacy.clip"] / clip_calls if clip_calls else 0.0,
        "privacy.noise.self_ms": _ms(self_ns["privacy.noise"]),
        "privacy.noise.values": amount["privacy.noise"],
        "data.batches.self_ms": _ms(self_ns["data.batches"]),
        "data.batches.rows": amount["data.batches"],
        "rng.stream.calls": calls["rng.stream"],
        "rng.stream.self_ms": _ms(self_ns["rng.stream"]),
        "transport.codec.self_ms": _ms(self_ns["transport.codec"]),
        "transport.codec.bytes": codec_bytes,
        "transport.frames": frames,
        "transport.broadcast.ms": _ms(total_ns["transport.broadcast"]),
        "transport.gather.ms": _ms(total_ns["transport.gather"]),
        "transport.gather.wait_ms": _ms(self_ns["transport.gather"]),
        "worker.update.ms_max": _ms(max(updates_ns, default=0)),
        "worker.update.ms_sum": _ms(sum(updates_ns)),
        "worker.recv_wait_ms": _ms(sum(recv_ns.values()) / len(recv_ns)) if recv_ns else 0.0,
        "runner.eval.self_ms": _ms(self_ns["runner.eval"]),
        "runner.eval.calls": eval_calls,
        "runner.round.self_ms": _ms(self_ns["runner.round"]),
        "trace.self_sum_err_pct": abs(main_self_ns - wall_ns) / wall_ns * 100.0,
    }


def setup_values(spans, main_thread) -> dict[str, float]:
    """Set-up values of one repeat: the server's round-0 spans."""
    build_ns = handshake_ns = 0
    for _id, _parent, name, start, end, _own, round_num, thread, _count in spans:
        if round_num != 0 or thread != main_thread:
            continue
        if name == "runner.build_data":
            build_ns += end - start
        elif GROUPS[name] == "transport.handshake":
            handshake_ns += end - start
    return {"data.build.s": build_ns / 1e9, "transport.handshake.s": handshake_ns / 1e9}


def summarize(rounds: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians across rounds and repeats; the self-sum error is the worst round."""
    out = {}
    for key in rounds[0]:
        values = [row[key] for row in rounds]
        out[key] = max(values) if key == "trace.self_sum_err_pct" else statistics.median(values)
    for key in setups[0]:
        out[key] = statistics.median(row[key] for row in setups)
    return out
