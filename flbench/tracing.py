"""Span recorder that times flcore from the outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces names in the
flcore modules with timing wrappers, at the place each name is *bound*:
``from .models import loss_and_grad`` copies the function into
``flcore.worker``, so the worker's calls are only seen by patching
``flcore.worker.loss_and_grad``.  ``uninstall`` puts every original back.
The one private name wrapped is ``runner._run_round``: ``train`` has no
public call per round, and its span is what the round's self time and the
check against wall time are measured on.

Each call becomes one span ``(id, parent, name, start_ns, end_ns, self_ns,
round, thread, amount)``.  Every thread has its own span stack, so spans of
concurrent client threads never become each other's parents.  ``self_ns`` is
the span's duration minus the durations of its direct children.  ``round``
is the round the calling thread is working on: ``runner._run_round`` and
``ClientWorker.handle_global`` set it from their round argument,
``TcpClientChannel.recv`` from the frame it returns, and carrier ``finish``
resets it to 0 (set-up and tear-down share round 0).  ``amount`` is a count
the call produced: rows batched, noise values drawn, bytes through the
codec, 1 if a gradient was clipped.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import flcore.algorithms
import flcore.rng
import flcore.runner
import flcore.transport
import flcore.worker

_now = time.perf_counter_ns


def _rows(args, result) -> int:
    return sum(batch.n for batch in result)


def _noise_values(args, result) -> int:
    values, spec = args[0], args[1]
    return values.shape[0] if spec.scale_b != 0.0 else 0


def _clipped(args, result) -> int:
    # clip_gradient hands back its argument untouched when no scaling happened.
    return 0 if result is args[0] else 1


def _out_bytes(args, result) -> int:
    return len(result)


def _in_bytes(args, result) -> int:
    return len(args[0])


_CODEC_ENCODERS = ("encode_envelope", "encode_vector", "encode_update_payload", "encode_join_ack")
_CODEC_DECODERS = ("decode_envelope", "decode_vectors", "decode_join_ack")
_CARRIER_METHODS = {"start": None, "broadcast_model": None, "gather_updates": None, "finish": 0}


def patch_targets():
    """(owner, attribute, span name, round source, amount) for every wrapped name.

    The round source is an argument index, ``"result"`` (read ``round_num``
    off the return value), an int constant given as ``("set", value)``, or
    None to leave the thread's round alone.
    """
    runner, worker, algorithms = flcore.runner, flcore.worker, flcore.algorithms
    transport = flcore.transport
    targets = [
        (runner, "_run_round", "runner._run_round", 2, None),
        (runner, "loss_and_grad", "runner.loss_and_grad", None, None),
        (runner, "validate", "runner.validate", None, None),
        (runner, "predict", "runner.predict", None, None),
        (runner, "decode_vectors", "runner.decode_vectors", None, _in_bytes),
        (runner, "dual_update", "runner.dual_update", None, None),
        (runner, "fedavg_global", "runner.fedavg_global", None, None),
        (runner, "iceadmm_global", "runner.iceadmm_global", None, None),
        (runner, "iiadmm_global", "runner.iiadmm_global", None, None),
        (runner, "build_data", "runner.build_data", None, None),
        (worker, "build_data", "worker.build_data", None, None),
        (worker, "loss_and_grad", "worker.loss_and_grad", None, None),
        (worker, "batches", "worker.batches", None, _rows),
        (worker, "perturb_output", "worker.perturb_output", None, _noise_values),
        (worker.ClientWorker, "handle_join_ack", "ClientWorker.handle_join_ack", None, None),
        (worker.ClientWorker, "handle_global", "ClientWorker.handle_global", 1, None),
        (algorithms, "clip_gradient", "algorithms.clip_gradient", None, _clipped),
        (algorithms, "fedavg_local", "algorithms.fedavg_local", None, None),
        (algorithms, "iiadmm_local", "algorithms.iiadmm_local", None, None),
        (algorithms, "iceadmm_local", "algorithms.iceadmm_local", None, None),
        (flcore.rng, "stream", "rng.stream", None, None),
        (transport.TcpClientChannel, "join", "TcpClientChannel.join", None, None),
        (transport.TcpClientChannel, "recv", "TcpClientChannel.recv", "result", None),
        (transport.TcpClientChannel, "send_update", "TcpClientChannel.send_update", None, None),
    ]
    targets += [(transport, name, f"transport.{name}", None, _out_bytes) for name in _CODEC_ENCODERS]
    targets += [(transport, name, f"transport.{name}", None, _in_bytes) for name in _CODEC_DECODERS]
    for cls in (transport.InProcessCarrier, transport.TcpServerCarrier):
        for method, reset in _CARRIER_METHODS.items():
            source = None if reset is None else ("set", reset)
            targets.append((cls, method, f"{cls.__name__}.{method}", source, None))
    return targets


class Tracer:
    """Collects spans in memory; ``take()`` hands them over and starts afresh."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spans: list[tuple] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.round = 0
        return local

    def set_round(self, round_num: int) -> None:
        self._state().round = round_num

    def _wrap(self, fn, name, round_source, amount):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if isinstance(round_source, int):
                state.round = args[round_source]
            elif isinstance(round_source, tuple):
                state.round = round_source[1]
            stack = state.stack
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            result = None
            start = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if round_source == "result" and result is not None:
                    state.round = result.round_num
                count = amount(args, result) if amount is not None and result is not None else 0
                tracer._spans.append(
                    (span_id, parent, name, start, end, duration - frame[1], state.round, threading.get_ident(), count)
                )

        return traced

    def take(self) -> list[tuple]:
        spans, self._spans = self._spans, []
        return spans

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, round_source, amount in patch_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, round_source, amount))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
