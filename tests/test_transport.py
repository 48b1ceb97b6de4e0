import json
import math
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcore import transport
from flcore.config import parse_config, shared_settings
from flcore.errors import ConfigError, NumericError, ProtocolError, TransportError
from flcore.models import param_count
from flcore.transport import (
    DONE,
    ERROR,
    GLOBAL_MODEL,
    HEADER_SIZE,
    JOIN,
    JOIN_ACK,
    LOCAL_UPDATE,
    TRAIN_LOSS,
    Envelope,
    TcpClientChannel,
    TcpServerCarrier,
    decode_envelope,
    decode_join_ack,
    decode_vectors,
    encode_envelope,
    encode_join_ack,
    encode_vector,
    payload_size,
)
from flcore.runner import metrics_line, train
from flcore.worker import ClientWorker, build_workers

GOLDEN_DONE = bytes.fromhex("464c4d50" "01" "04" "00000000" "00000000" "0000000000000000")


class TestCodecGolden:
    def test_done_frame_is_22_bytes_exact(self):
        frame = encode_envelope(Envelope(DONE, 0, 0, b""))
        assert len(frame) == 22 == HEADER_SIZE
        assert frame == GOLDEN_DONE

    def test_vector_one_point_zero(self):
        payload = encode_vector(np.array([1.0]))
        assert payload == bytes.fromhex("0100000000000000" "000000000000f03f")

    def test_kind_numbering(self):
        assert (JOIN, JOIN_ACK, GLOBAL_MODEL, LOCAL_UPDATE, DONE, ERROR) == (0, 1, 2, 3, 4, 5)


class TestRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.integers(0, 5),
        round_num=st.integers(0, 2**32 - 1),
        client_id=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=4096),
    )
    def test_envelope_roundtrip(self, kind, round_num, client_id, payload):
        env = Envelope(kind, round_num, client_id, payload)
        assert decode_envelope(encode_envelope(env)) == env

    def test_large_payload_roundtrip(self):
        env = Envelope(LOCAL_UPDATE, 7, 3, bytes(range(256)) * 4096)  # 1 MiB
        assert decode_envelope(encode_envelope(env)) == env

    def test_vector_roundtrip(self):
        arrays = [np.array([1.5, -2.25, 0.0]), np.array([3.125])]
        payload = b"".join(encode_vector(a) for a in arrays)
        out = decode_vectors(payload)
        assert len(out) == 2
        assert np.array_equal(out[0], arrays[0]) and np.array_equal(out[1], arrays[1])

    def test_join_ack_roundtrip(self):
        cfg = make_config(m=43, rounds=50)
        payload = encode_join_ack(cfg)
        back = decode_join_ack(payload)
        assert back == shared_settings(cfg)
        assert back["algo.rounds"] == 50 and back["model.input_dim"] == 42
        assert payload == json.dumps(back, sort_keys=True, separators=(",", ":")).encode()


class TestMalformed:
    def test_truncations_never_panic(self):
        frame = encode_envelope(Envelope(LOCAL_UPDATE, 1, 2, encode_vector(np.arange(4.0))))
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError):
                decode_envelope(frame[:cut])

    def test_bad_magic(self):
        frame = bytearray(GOLDEN_DONE)
        frame[0] = ord("X")
        with pytest.raises(ProtocolError, match="byte 0"):
            decode_envelope(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(GOLDEN_DONE)
        frame[4] = 0x02
        with pytest.raises(ProtocolError, match="byte 4"):
            decode_envelope(bytes(frame))

    def test_unknown_kind(self):
        frame = bytearray(GOLDEN_DONE)
        frame[5] = 0x09
        with pytest.raises(ProtocolError, match="byte 5"):
            decode_envelope(bytes(frame))

    def test_trailing_garbage(self):
        with pytest.raises(ProtocolError, match="mismatch"):
            decode_envelope(GOLDEN_DONE + b"\x00")

    def test_truncated_vector_payload(self):
        with pytest.raises(ProtocolError, match="byte"):
            decode_vectors(b"\x03\x00\x00\x00\x00\x00\x00\x00" + b"\x00" * 8)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_random_bytes_yield_protocol_error_or_envelope(self, data):
        try:
            decode_envelope(data)
        except ProtocolError:
            pass  # the only acceptable exception

    @pytest.mark.parametrize(
        "payload",
        [b"", b"[1, 2]", b"3", b"null", b'"algo"', b"\xff\xfe{}", b"{\"a\": \xc3}", b"[" * 100_000, b"1" * 5000],
        ids=["empty", "array", "number", "null", "string", "bom", "bad-utf8", "deep", "huge-int"],
    )
    def test_malformed_join_ack_is_protocol_error(self, payload):
        with pytest.raises(ProtocolError, match="JOIN_ACK"):
            decode_join_ack(payload)

    def test_join_ack_truncations_never_panic(self):
        payload = encode_join_ack(make_config())
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode_join_ack(payload[:cut])

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=64), st.text(max_size=64).map(str.encode)))
    def test_random_join_ack_yields_protocol_error_or_object(self, data):
        try:
            assert isinstance(decode_join_ack(data), dict)
        except ProtocolError:
            pass  # the only acceptable exception


class TestPayloadSize:
    def test_iiadmm(self):
        assert payload_size("iiadmm", 10) == 88

    def test_iceadmm_doubles(self):
        assert payload_size("iceadmm", 10) == 176

    @pytest.mark.parametrize("m", [1, 10, 1000, 100_000])
    def test_ratio_exactly_two(self, m):
        assert payload_size("iceadmm", m) == 2 * payload_size("iiadmm", m)
        assert payload_size("fedavg", m) == payload_size("iiadmm", m)


class TestUpdateCollector:
    """``check_update``: the one check every frame the TCP server gathers passes."""

    SIZE = 24  # one vector of m = 2

    def check(self, kind, round_num, client_id, length=SIZE):
        header = transport.HEADER.pack(transport.MAGIC, transport.VERSION, kind, round_num, client_id, length)
        return transport.check_update(header, 0, 3, self.SIZE)

    def test_stale_round_is_protocol_error(self):
        # Rounds are synchronous, so an update for an earlier round can only be a duplicate.
        with pytest.raises(ProtocolError, match="client 0 sent LOCAL_UPDATE for round 2 during round 3"):
            self.check(LOCAL_UPDATE, 2, 0)

    def test_future_round_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="round 4"):
            self.check(LOCAL_UPDATE, 4, 0)

    def test_duplicate_update_is_protocol_error(self):
        # The second copy of the round-1 update is the frame read for round 2.
        def send_twice(channel):
            env = channel.recv()
            channel.send_update(env.round_num, [np.zeros(2)])
            channel.send_update(env.round_num, [np.zeros(2)])
            channel.recv()

        carrier, thread = scripted_session(send_twice)
        carrier.broadcast_model(1, np.zeros(2))
        carrier.gather_updates(1, timeout_s=10.0)
        carrier.broadcast_model(2, np.zeros(2))
        with pytest.raises(ProtocolError, match="client 0 sent LOCAL_UPDATE for round 1 during round 2"):
            carrier.gather_updates(2, timeout_s=10.0)
        carrier.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_unknown_client_rejected(self):
        with pytest.raises(ProtocolError, match="client 0 sent a frame as client 9"):
            self.check(LOCAL_UPDATE, 3, 9)

    def test_client_error_envelope_surfaces(self):
        def fail(channel):
            env = channel.recv()
            channel.send_error(env.round_num, "boom")
            channel.recv()  # ends when the server closes

        carrier, thread = scripted_session(fail)
        carrier.broadcast_model(1, np.zeros(2))
        with pytest.raises(TransportError, match="client 0 reported: boom"):
            carrier.gather_updates(1, timeout_s=10.0)
        carrier.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_long_error_message_truncated_to_the_cap(self):
        def fail(channel):
            env = channel.recv()
            channel.send_error(env.round_num, "x" * (2 * transport.MAX_ERROR_PAYLOAD))
            channel.recv()  # ends when the server closes

        carrier, thread = scripted_session(fail)
        carrier.broadcast_model(1, np.zeros(2))
        # A message of exactly the cap passes the header check.
        with pytest.raises(TransportError, match="client 0 reported: x+$") as info:
            carrier.gather_updates(1, timeout_s=10.0)
        assert str(info.value).count("x") == transport.MAX_ERROR_PAYLOAD
        carrier.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class EchoWorker:
    """Minimal in-process client: replies with the received model."""

    group_key = "echo"  # the carrier runs all echo workers as one group
    local = SimpleNamespace(size=1)  # one row: too little work for the carrier to use lanes

    def __init__(self, client_id, vectors=1):
        self.client_id = client_id
        self.vectors = vectors
        self.seen_payloads = []

    def handle_join_ack(self, session):
        self.session = session

    def handle_global(self, round_num, w):
        self.seen_payloads.append(w.tobytes())
        return [w.copy() for _ in range(self.vectors)]

    def train_loss(self, z):
        return float(z.sum())

    @staticmethod
    def handle_group(workers, round_num, models):
        return [worker.handle_global(round_num, w) for worker, w in zip(workers, models)]


def make_config(m=2, rounds=3, kind="iiadmm", clients=1):
    """A run config whose model has m parameters, for a carrier of ``clients`` clients."""
    return parse_config(
        {
            "model": {"kind": "linear-regression", "input_dim": m - 1, "output_dim": 1},
            "algo": {"kind": kind, "rounds": rounds},
            "data": {"source": "synthetic-regression", "input_dim": m - 1},
            "run": {"clients": clients},
        }
    )


class TestInProcessCarrier:
    def test_byte_accounting(self):
        carrier = transport.InProcessCarrier([EchoWorker(i) for i in range(3)])
        carrier.start(make_config(m=2, clients=3))
        assert carrier.broadcast_model(1, np.array([1.0, 2.0])) == 3 * (22 + 8 + 16)
        envs = carrier.gather_updates(1)
        assert [e.client_id for e in envs] == [0, 1, 2]
        assert [len(e.payload) for e in envs] == [8 + 16] * 3

        # The runner counts each round's frames from those two results.
        cfg = parse_config(
            {
                "model": {"kind": "softmax", "input_dim": 2, "output_dim": 3},
                "algo": {"kind": "iceadmm", "rounds": 2},
                "data": {"source": "synthetic-blobs", "n": 60, "input_dim": 2, "classes": 3},
                "run": {"clients": 3, "seed": 0},
            }
        )
        m, up = 9, payload_size("iceadmm", 9)
        for metrics in train(cfg).metrics:
            assert metrics.bytes_down == 3 * (22 + 8 + 8 * m)
            assert metrics.bytes_up == 3 * (22 + up)
            assert metrics.payload_bytes_up == 3 * up

    def test_gather_is_sorted_and_complete(self):
        carrier = transport.InProcessCarrier([EchoWorker(i) for i in reversed(range(5))])
        carrier.start(make_config(clients=5))
        carrier.broadcast_model(1, np.zeros(2))
        envs = carrier.gather_updates(1)
        assert [e.client_id for e in envs] == [0, 1, 2, 3, 4]

    def test_groups_follow_group_key(self):
        workers = [EchoWorker(i) for i in range(4)]
        for worker in workers[1::2]:
            worker.group_key = "odd"
        carrier = transport.InProcessCarrier(workers)
        assert [[w.client_id for w in group] for group in carrier.groups] == [[0, 2], [1, 3]]
        carrier.start(make_config(clients=4))
        w = np.array([0.5, -2.0])
        carrier.broadcast_model(1, w)
        envs = carrier.gather_updates(1)
        assert [e.client_id for e in envs] == [0, 1, 2, 3]
        assert [decode_vectors(e.payload)[0].tobytes() for e in envs] == [w.tobytes()] * 4
        assert all(worker.seen_payloads == [w.tobytes()] for worker in workers)

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 50), min_size=1, max_size=12), data=st.data())
    def test_lane_chunks_are_contiguous_and_nonempty(self, sizes, data):
        k = data.draw(st.integers(1, len(sizes)))
        workers = [SimpleNamespace(local=SimpleNamespace(size=n)) for n in sizes]
        chunks = transport._chunks(workers, k)
        assert len(chunks) == k and all(chunks) and [w for chunk in chunks for w in chunk] == workers
        if len(set(sizes)) == 1 and len(sizes) % k == 0:  # equal rows split evenly
            assert [len(chunk) for chunk in chunks] == [len(sizes) // k] * k


WORKLOADS = json.loads((Path(__file__).parents[1] / "flbench" / "workloads.json").read_text())["workloads"]
SRC = Path(__file__).parents[1] / "src"


class RaisingWorker(EchoWorker):
    """A lone client whose every round fails with a NumericError naming a row, as a stacked kernel's does."""

    @property
    def group_key(self):
        return ("raising", self.client_id)

    def handle_global(self, round_num, w):
        raise NumericError(f"client {self.client_id}: non-finite loss", row=self.client_id + 5)


# Runs two clients, one in a lane that sleeps through round 1, so that the lane is
# mid-round (not waiting on its pipe) when this process is killed; prints the lane pids.
KILLED_PARENT = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from types import SimpleNamespace
from flcore import transport
from flcore.config import parse_config
from flcore.runner import train

transport.LANE_WORK = 0
transport._usable_cpus = lambda: 2
PARENT = os.getpid()


class Sleeper:
    local = SimpleNamespace(size=1)

    def __init__(self, client_id):
        self.client_id = self.group_key = client_id

    def handle_join_ack(self, settings):
        pass

    def handle_global(self, round_num, w):
        if os.getpid() == PARENT:
            print(*[lane.pid for lane, _ in carrier._lanes], flush=True)
        else:
            time.sleep(60)
        return [w]


config = parse_config({"run": {"clients": 2}})
carrier = transport.InProcessCarrier([Sleeper(0), Sleeper(1)])
train(config, carrier=carrier)
"""
# A round of 8 rows x 1 step x 100,000 parameters, as acceptance 06's widest: below LANE_WORK.
LIGHT = {
    "model": {"kind": "linear-regression", "input_dim": 99_999},
    "algo": {"kind": "fedavg", "local_steps": 1, "batch_size": 64},
    "data": {"source": "synthetic-regression", "n": 8, "input_dim": 99_999, "test_fraction": 0.0},
    "run": {"clients": 2},
}


def lone_iceadmm_config():
    """Three ICEADMM clients, so three groups of one."""
    return parse_config(
        {
            "model": {"kind": "softmax", "input_dim": 4, "output_dim": 3},
            "algo": {"kind": "iceadmm", "rho": 2.0, "zeta": 1.0, "local_steps": 3, "rounds": 3},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
            "data": {"source": "synthetic-blobs", "n": 120, "input_dim": 4, "classes": 3},
            "run": {"clients": 3, "seed": 4},
        }
    )


def uneven_iiadmm_config():
    """Three IIADMM clients of 31, 30 and 30 rows: a group of one and a group of two."""
    return parse_config(
        {
            "model": {"kind": "mlp1", "input_dim": 4, "output_dim": 3, "hidden_dim": 5},
            "algo": {"kind": "iiadmm", "rho": 2.0, "zeta": 0.5, "local_steps": 2, "batch_size": 8, "rounds": 3},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
            "data": {"source": "synthetic-blobs", "n": 114, "input_dim": 4, "classes": 3, "partition": "iid-shuffle"},
            "run": {"clients": 3, "seed": 2},
        }
    )


def fedavg_config():
    """Four FedAvg clients of equal rows: one group, cut across three processes."""
    return parse_config(
        {
            "model": {"kind": "mlp1", "input_dim": 4, "output_dim": 3, "hidden_dim": 5},
            "algo": {"kind": "fedavg", "eta": 0.1, "beta": 0.9, "local_steps": 2, "batch_size": 8, "rounds": 3},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
            "data": {"source": "synthetic-blobs", "n": 160, "input_dim": 4, "classes": 3},
            "run": {"clients": 4, "seed": 3},
        }
    )


def run_with_threshold(monkeypatch, cfg, threshold, on_round_end=None, workers=None):
    """``train`` with the carrier's lane threshold set; records how many processes ran each round."""
    monkeypatch.setattr(transport, "LANE_WORK", threshold)
    processes = []

    def hook(t, w, duals, carrier):
        processes.append(carrier.lanes)
        if on_round_end is not None:
            on_round_end(t, w, duals, carrier)

    carrier = None if workers is None else transport.InProcessCarrier(workers)
    try:
        return train(cfg, carrier=carrier, on_round_end=hook), processes
    finally:
        assert not has_children()  # every lane of the run was killed and reaped


def has_children() -> bool:
    """Whether this process has a child, a zombie included; reaps none."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return True
    except ChildProcessError:
        return False


def stat(pid: int) -> list[str]:
    """The fields of /proc/PID/stat after the command name: state, parent pid, ..."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie waiting for a reaper counts)."""
    try:
        return stat(pid)[0] == "Z"
    except FileNotFoundError:
        return True


needs_lanes = pytest.mark.skipif(
    not hasattr(os, "fork") or not Path("/proc/self/stat").is_file(), reason="lanes are forked; the checks read /proc"
)


@pytest.fixture
def three_cpus(monkeypatch):
    """Three usable CPUs, so three-client runs use two lanes whatever the host has; no lane outlives the test."""
    monkeypatch.setattr(transport, "_usable_cpus", lambda: 3)
    yield
    assert not has_children()


@needs_lanes
@pytest.mark.usefixtures("three_cpus")
class TestConcurrentGroups:
    @pytest.mark.parametrize("make_config", [lone_iceadmm_config, uneven_iiadmm_config, fedavg_config])
    def test_pooled_and_sequential_runs_are_byte_identical(self, monkeypatch, make_config):
        cfg = make_config()
        if make_config is uneven_iiadmm_config:
            sizes = [len(group) * group[0].local.size for group in transport.InProcessCarrier(build_workers(cfg)).groups]
            assert sizes == [31, 60]
        sequential, never = run_with_threshold(monkeypatch, cfg, float("inf"))
        forked, always = run_with_threshold(monkeypatch, cfg, 0)
        assert never == [1] * 3 and always == [3] * 3
        assert [metrics_line(m) for m in forked.metrics] == [metrics_line(m) for m in sequential.metrics]
        assert forked.final_w.tobytes() == sequential.final_w.tobytes()

    def test_a_lane_runs_its_own_runs_code(self, monkeypatch):
        cfg = fedavg_config()
        run_with_threshold(monkeypatch, cfg, 0)
        monkeypatch.setattr(ClientWorker, "train_loss", lambda self, z: 7.0)
        again, processes = run_with_threshold(monkeypatch, cfg, 0)
        assert processes == [3] * 3
        assert [m.train_loss for m in again.metrics] == [7.0] * 3

    def test_server_duals_equal_the_lane_workers_lambda(self, monkeypatch):
        checked = []

        def check(t, w, duals, carrier):
            assert all(duals[p].tobytes() == worker.lam.tobytes() for p, worker in enumerate(carrier.workers))
            checked.append(t)

        # Client 0 runs here; the group of clients 1 and 2 is cut across the two lanes.
        _, processes = run_with_threshold(monkeypatch, uneven_iiadmm_config(), 0, check)
        assert processes == [3] * 3 and checked == [1, 2, 3]

    def test_failing_group_is_named_as_in_a_sequential_run(self, monkeypatch):
        cfg = lone_iceadmm_config()
        messages = []
        for threshold in (float("inf"), 0):
            # A lane holds a copy of its workers from the start, so the rows are poisoned first:
            # clients 1 and 2 both fail in round 1, each in its own lane when lanes are on.
            workers = build_workers(cfg)
            for worker in workers[1:]:
                worker.local.inputs[0, 0] = np.nan
            with pytest.raises(NumericError) as info:
                run_with_threshold(monkeypatch, cfg, threshold, workers=workers)
            messages.append(str(info.value))
        assert messages[0].startswith("round 1: client 1: ")
        assert messages[1] == messages[0]

    def test_numeric_error_crosses_a_lane_whole(self, monkeypatch):
        raised = []
        for threshold in (float("inf"), 0):
            monkeypatch.setattr(transport, "LANE_WORK", threshold)
            carrier = transport.InProcessCarrier([EchoWorker(0), RaisingWorker(1), RaisingWorker(2)])
            carrier.start(make_config(clients=3))
            try:
                with pytest.raises(NumericError) as info:
                    carrier.broadcast_model(1, np.zeros(2))
            finally:
                carrier.close()
            raised.append((carrier.lanes, type(info.value), str(info.value), info.value.row))
        assert raised == [(1, NumericError, "client 1: non-finite loss", 6), (3, NumericError, "client 1: non-finite loss", 6)]

    def test_lane_that_dies_is_named_by_its_clients(self, monkeypatch):
        def kill_first_lane(t, w, duals, carrier):
            if t == 1:
                lane = carrier._lanes[0][0]
                os.kill(lane.pid, signal.SIGKILL)
                os.waitid(os.P_PID, lane.pid, os.WEXITED | os.WNOWAIT)

        with pytest.raises(TransportError, match=r"^round 2: the lane process running clients \[1\] ended"):
            run_with_threshold(monkeypatch, lone_iceadmm_config(), 0, kill_first_lane)
        assert not has_children()  # the failed run reaped its dead lane and killed the other

    @pytest.mark.parametrize("make_config", [uneven_iiadmm_config, fedavg_config])
    def test_lanes_send_back_only_the_state_the_kind_carries(self, monkeypatch, make_config):
        # FedAvg carries nothing and IIADMM only lambda: a worker's other state stays the object JOIN_ACK set.
        monkeypatch.setattr(transport, "LANE_WORK", 0)
        cfg = make_config()
        carrier = transport.InProcessCarrier(build_workers(cfg))
        carrier.start(cfg)
        try:
            joined = [(worker.z, worker.lam) for worker in carrier.workers]
            for round_num in (1, 2):
                carrier.broadcast_model(round_num, np.full(param_count(cfg.model), 0.1))
        finally:
            carrier.finish()
        assert carrier.lanes == 3
        for worker, (z, lam) in zip(carrier.workers, joined):
            assert worker.z is z
            assert (worker.lam is lam) == (cfg.algo.kind == "fedavg")

    def test_reused_carrier_forgets_the_last_runs_lanes(self, monkeypatch):
        cfg = fedavg_config()
        carrier = transport.InProcessCarrier(build_workers(cfg))
        monkeypatch.setattr(transport, "LANE_WORK", 0)
        train(cfg, carrier=carrier)
        assert carrier.lanes == 3
        monkeypatch.setattr(transport, "LANE_WORK", float("inf"))  # the next run stays in this process
        again = train(cfg, carrier=carrier)
        fresh = train(cfg)
        assert carrier.lanes == 1
        assert [metrics_line(m) for m in again.metrics] == [metrics_line(m) for m in fresh.metrics]
        assert again.final_w.tobytes() == fresh.final_w.tobytes()

    @pytest.mark.parametrize(
        "workload, processes", [("dispatch-mlp", 3), ("fullbatch-iceadmm", 2), ("wide-tcp", 2), ("light", 1)]
    )
    def test_only_heavy_rounds_run_in_lanes(self, workload, processes):
        raw = WORKLOADS[workload]["config"] if workload in WORKLOADS else LIGHT
        cfg = parse_config({**raw, "algo": {**raw["algo"], "rounds": 1}})
        carrier = transport.InProcessCarrier(build_workers(cfg))
        carrier.start(cfg)
        try:
            assert carrier.lanes == processes
        finally:
            carrier.finish()
        assert not has_children()


class TestLaneReply:
    def test_iceadmm_reply_pickles_lambda_once(self):
        cfg = lone_iceadmm_config()
        workers = build_workers(cfg)
        settings = decode_join_ack(encode_join_ack(cfg))
        for worker in workers:
            worker.handle_join_ack(settings)
        parts = [[worker] for worker in workers]
        results = transport._run_parts(parts, 1, workers[0].z.copy())
        for part, [(payloads, _)] in zip(parts, results):
            assert payloads[1] is part[0].lam
        reply = transport._lane_reply(parts, results)
        # The same reply with each carried vector a copy of its own, as if nothing were shared.
        unshared = [
            [(arrays, loss, {name: v.copy() for name, v in state.items()}) for arrays, loss, state in answer]
            for answer in reply
        ]
        size = len(ForkingPickler.dumps(reply))
        assert len(ForkingPickler.dumps(unshared)) - size >= 8 * param_count(cfg.model) * len(workers)


@needs_lanes
@pytest.mark.usefixtures("three_cpus")
class TestLaneLifecycle:
    def test_lanes_die_with_a_killed_parent(self):
        command = [sys.executable, "-c", KILLED_PARENT, str(SRC)]
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(30.0, proc.kill)  # bounds the read below
        timer.start()
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            timer.cancel()
            timer.join(timeout=10)
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        assert len(pids) == 1
        deadline = time.monotonic() + 2.0
        while not all(gone(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(gone(pid) for pid in pids)


def run_echo_client(port, client_id, rounds, vectors=1, join_only=False, result=None):
    try:
        channel = TcpClientChannel(f"127.0.0.1:{port}", client_id, timeout_s=10.0)
        try:
            session = channel.join()
            if join_only:
                return
            worker = EchoWorker(client_id, vectors)
            worker.handle_join_ack(session)
            while True:
                env = channel.recv()
                if env.kind == DONE:
                    return
                arrays = worker.handle_global(env.round_num, decode_vectors(env.payload)[0])
                channel.send_update(env.round_num, arrays)
        finally:
            channel.close()
    except Exception as exc:  # surfaced by the test thread's owner
        if result is not None:
            result.append(exc)


def scripted_session(script, rounds=2):
    """A started one-client TCP carrier whose client joins, then runs ``script(channel)`` in a thread.

    The TransportError a client gets when the server closes on it is expected.
    """
    carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)

    def client():
        channel = TcpClientChannel(f"127.0.0.1:{carrier.address[1]}", 0, timeout_s=10.0)
        try:
            channel.join()
            script(channel)
        except TransportError:
            pass
        finally:
            channel.close()

    thread = threading.Thread(target=client)
    thread.start()
    carrier.start(make_config(rounds=rounds))
    return carrier, thread


def loss_frame(round_num=1, client_id=0, length=16, kind=TRAIN_LOSS):
    """A frame header in the TRAIN_LOSS frame's place, with no payload."""
    return transport.HEADER.pack(transport.MAGIC, transport.VERSION, kind, round_num, client_id, length)


def reported_loss(round_num, value=1.0):
    """Client 0's whole TRAIN_LOSS frame for ``round_num``."""
    return encode_envelope(Envelope(TRAIN_LOSS, round_num, 0, encode_vector(np.array([value]))))


def raw_loss_session(answer, timeout_s=5.0):
    """``train`` over TCP against one raw client that answers round t with an echo update and then ``answer(t)``.

    ``answer`` gives the bytes sent in the TRAIN_LOSS frame's place, in the
    update's write, or None to close the connection after the update.
    Returns the error ``train`` raised and the seconds from its last
    GLOBAL_MODEL to the error.
    """
    config = parse_config(
        {
            "model": {"kind": "linear-regression", "input_dim": 1},
            "algo": {"kind": "iiadmm", "rounds": 3},
            "data": {"source": "synthetic-regression", "input_dim": 1},
            "run": {"clients": 1, "timeout_s": timeout_s},
        }
    )
    carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
    sent = []

    def client():
        with socket.create_connection(carrier.address[:2], timeout=10.0) as raw:
            raw.sendall(encode_envelope(Envelope(JOIN, 0, 0)))
            try:
                assert transport.read_frame(raw).kind == JOIN_ACK
                while (env := transport.read_frame(raw)).kind == GLOBAL_MODEL:
                    sent.append(time.monotonic())
                    tail = answer(env.round_num)
                    raw.sendall(encode_envelope(Envelope(LOCAL_UPDATE, env.round_num, 0, env.payload)) + (tail or b""))
                    if tail is None:
                        return
            except (TransportError, OSError):
                pass  # the server closed on this client

    thread = threading.Thread(target=client)
    thread.start()
    try:
        with pytest.raises(Exception) as info:
            train(config, carrier=carrier)
        return info.value, time.monotonic() - sent[-1]
    finally:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestTrainLossFrame:
    """The TRAIN_LOSS frame each client sends right after its update, as ``train`` over TCP reads it."""

    def test_full_session_reports_each_clients_loss(self):
        assert TRAIN_LOSS == 6 and len(reported_loss(1)) == 38
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        with socket.create_connection(carrier.address[:2], timeout=10.0) as raw:
            raw.sendall(encode_envelope(Envelope(JOIN, 0, 0)))
            carrier.start(make_config())
            assert transport.read_frame(raw).kind == JOIN_ACK
            for t in (1, 2):
                carrier.broadcast_model(t, np.zeros(2))
                env = transport.read_frame(raw)
                raw.sendall(encode_envelope(Envelope(LOCAL_UPDATE, t, 0, env.payload)) + reported_loss(t, 0.25 * t))
                assert [e.payload for e in carrier.gather_updates(t, timeout_s=5.0)] == [env.payload]
                assert carrier.gather_losses(t, timeout_s=5.0) == [0.25 * t]
        carrier.close()

    @pytest.mark.parametrize(
        "answer,message",
        [
            (lambda t: reported_loss(t) if t == 1 else loss_frame(round_num=1),
             "round 2: client 0 sent TRAIN_LOSS for round 1 during round 2"),
            (lambda t: loss_frame(round_num=2), "round 1: client 0 sent TRAIN_LOSS for round 2 during round 1"),
            (lambda t: loss_frame(client_id=9), "round 1: client 0 sent a frame as client 9"),
            (lambda t: loss_frame(length=2**31), "round 1: client 0 declared a 2147483648-byte train loss; the session's is 16"),
            (lambda t: loss_frame(length=24), "round 1: client 0 declared a 24-byte train loss; the session's is 16 bytes"),
            (lambda t: loss_frame(kind=ERROR, length=2**31), "round 1: client 0 declared a 2147483648-byte ERROR"),
            (lambda t: loss_frame(kind=LOCAL_UPDATE), "round 1: client 0 sent LOCAL_UPDATE for round 1 during round 1"),
        ],
        ids=["stale", "future", "wrong-client", "forged-length", "long", "forged-error-length", "second-update"],
    )
    def test_bad_header_rejected_before_its_payload(self, answer, message):
        # Each header comes without its payload: reading one would wait for the deadline.
        error, seconds = raw_loss_session(answer)
        assert isinstance(error, ProtocolError) and str(error).startswith(message)
        assert seconds < 2.0

    def test_loss_frame_of_two_values_rejected(self):
        error, _ = raw_loss_session(lambda t: loss_frame() + struct.pack("<Qd", 2, 1.0))
        assert isinstance(error, ProtocolError)
        assert str(error) == "round 1: client 0 sent a TRAIN_LOSS of 2 values, not 1"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_is_protocol_error(self, value):
        error, _ = raw_loss_session(lambda t: reported_loss(t, value))
        assert isinstance(error, ProtocolError) and str(error) == "round 1: client 0 sent a non-finite train loss"

    def test_error_in_the_loss_frames_place_is_reported(self):
        error, _ = raw_loss_session(lambda t: encode_envelope(Envelope(ERROR, t, 0, b"boom")))
        assert isinstance(error, TransportError) and str(error) == "round 1: client 0 reported: boom"

    def test_client_closing_before_its_loss_is_named_within_the_deadline(self):
        error, seconds = raw_loss_session(lambda t: None, timeout_s=3.0)
        assert isinstance(error, TransportError)
        assert str(error).startswith("round 1: lost client 0 during round 1: connection closed")
        assert seconds < 3.0


class TestTcpCarrier:
    def test_full_session_with_byte_accounting(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=2, handshake_timeout_s=10.0)
        port = carrier.address[1]
        errors = []
        threads = [
            threading.Thread(target=run_echo_client, args=(port, cid, 2), kwargs={"result": errors})
            for cid in range(2)
        ]
        for t in threads:
            t.start()
        carrier.start(make_config(m=2, rounds=2, clients=2))
        for round_num in (1, 2):
            assert carrier.broadcast_model(round_num, np.array([3.5, -1.0])) == 2 * (22 + 24)
            envs = carrier.gather_updates(round_num, timeout_s=10.0)
            assert [e.client_id for e in envs] == [0, 1]
            assert [len(e.payload) for e in envs] == [24, 24]
        carrier.finish()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors

    def test_duplicate_client_id_rejected(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=2, handshake_timeout_s=10.0)
        port = carrier.address[1]
        server = threading.Thread(target=lambda: (carrier.start(make_config(rounds=0, clients=2)), carrier.finish()))
        server.start()

        first = TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=10.0)
        ack_result = []
        waiter = threading.Thread(target=lambda: ack_result.append(first.join()))
        waiter.start()
        time.sleep(0.2)  # let the server register client 0 before the duplicate arrives

        with pytest.raises(TransportError, match="already joined"):
            TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=10.0).join()

        second = TcpClientChannel(f"127.0.0.1:{port}", 1, timeout_s=10.0)
        second.join()
        server.join(timeout=10.0)
        waiter.join(timeout=10.0)
        assert ack_result and ack_result[0]["algo.rounds"] == 0
        first.close()
        second.close()

    def test_out_of_range_id_rejected(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        port = carrier.address[1]
        server = threading.Thread(target=lambda: (carrier.start(make_config(rounds=0)), carrier.finish()))
        server.start()

        with pytest.raises(TransportError, match="out of range"):
            TcpClientChannel(f"127.0.0.1:{port}", 5, timeout_s=10.0).join()

        good = TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=10.0)
        good.join()
        server.join(timeout=10.0)
        good.close()

    @pytest.mark.parametrize("addr", ["127.0.0.1", ":80", "127.0.0.1:", "127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:-1"])
    def test_bad_address_is_named(self, addr):
        with pytest.raises(TransportError, match=re.escape(repr(addr))):
            TcpServerCarrier(addr, num_clients=1)
        with pytest.raises(TransportError, match=re.escape(repr(addr))):
            TcpClientChannel(addr, 0, timeout_s=0.1)

    def test_refused_connection_gives_up_at_timeout(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1)
        port = carrier.address[1]
        carrier.close()  # nothing listens on the port any more
        begin = time.monotonic()
        with pytest.raises(TransportError, match="no server"):
            TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=0.3)
        assert 0.3 <= time.monotonic() - begin < 5.0

    def test_lost_client_named_in_error(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        port = carrier.address[1]

        def vanishing_client():
            channel = TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=10.0)
            channel.join()
            channel.recv()  # take the model, then drop the connection
            channel.close()

        t = threading.Thread(target=vanishing_client)
        t.start()
        carrier.start(make_config(rounds=1))
        carrier.broadcast_model(1, np.zeros(2))
        with pytest.raises(TransportError, match="client 0"):
            carrier.gather_updates(1, timeout_s=5.0)
        t.join(timeout=10.0)
        carrier.close()

    def test_gather_timeout_names_missing_clients(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        port = carrier.address[1]

        def silent_client():
            channel = TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=10.0)
            channel.join()
            channel.recv()  # receive the model, never answer
            with pytest.raises(TransportError):
                channel.recv()  # blocks until the server closes
            channel.close()

        t = threading.Thread(target=silent_client, daemon=True)
        t.start()
        carrier.start(make_config(rounds=1))
        carrier.broadcast_model(1, np.zeros(2))
        with pytest.raises(TransportError, match=r"missing clients \[0\]"):
            carrier.gather_updates(1, timeout_s=0.3)
        carrier.close()
        t.join(timeout=5.0)
        assert not t.is_alive()

    @pytest.mark.parametrize("trickle", [False, True], ids=["silent", "trickling"])
    def test_slow_peer_ends_handshake_at_its_deadline(self, trickle):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=1.0)
        peer = socket.create_connection(carrier.address[:2])

        def send_join_byte_by_byte():  # 22 bytes at 0.1 s each outlast the deadline
            try:
                for byte in encode_envelope(Envelope(JOIN, 0, 0)):
                    peer.sendall(bytes([byte]))
                    time.sleep(0.1)
            except OSError:
                pass  # the server gave up on this peer

        sender = threading.Thread(target=send_join_byte_by_byte if trickle else lambda: None)
        sender.start()
        begin = time.monotonic()
        with pytest.raises(TransportError, match=r"handshake timed out after 1 s waiting for clients \[0\]"):
            carrier.start(make_config())
        assert 1.0 <= time.monotonic() - begin < 1.0 + 0.5
        sender.join(timeout=5.0)
        assert not sender.is_alive()
        peer.close()
        carrier.close()

    def test_silent_peer_does_not_starve_a_client_behind_it(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=1.0)
        silent = socket.create_connection(carrier.address[:2])
        channel = TcpClientChannel(f"127.0.0.1:{carrier.address[1]}", 0, timeout_s=10.0)
        joined = []
        joiner = threading.Thread(target=lambda: joined.append(channel.join()))
        joiner.start()
        try:
            carrier.start(make_config(rounds=3))
        finally:
            carrier.close()
            joiner.join(timeout=10.0)
            silent.close()
            channel.close()
        assert not joiner.is_alive()
        assert joined and joined[0]["algo.rounds"] == 3

    def test_join_names_client_when_server_drops_its_backlog(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1)
        channel = TcpClientChannel(f"127.0.0.1:{carrier.address[1]}", 0, timeout_s=10.0)
        carrier.close()  # the client is still in the listener's backlog, never accepted
        try:
            with pytest.raises(TransportError, match="client 0"):
                channel.join()
        finally:
            channel.close()

    def test_send_to_client_that_never_reads_times_out(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=0.5)
        channel = TcpClientChannel(f"127.0.0.1:{carrier.address[1]}", 0, timeout_s=10.0)
        joiner = threading.Thread(target=channel.join)  # joins, then never reads again
        joiner.start()
        carrier.start(make_config())
        joiner.join(timeout=10.0)
        begin = time.monotonic()
        with pytest.raises(TransportError, match="could not send GLOBAL_MODEL to client 0 within 0.5 s"):
            carrier.broadcast_model(1, np.zeros(2_000_001))
        assert time.monotonic() - begin < 0.5 + 0.5
        carrier.close()
        channel.close()

    @pytest.mark.parametrize("answered", [False, True], ids=["silent", "answered"])
    def test_server_abort_reaches_blocked_client(self, answered):
        # A server closing with the client's update unread resets the connection instead of closing it.
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        channel = TcpClientChannel(f"127.0.0.1:{carrier.address[1]}", 0, timeout_s=10.0)
        outcome = []

        def client():
            channel.join()
            if answered:
                channel.send_update(1, [np.zeros(2)])
            try:
                channel.recv()
            except TransportError as exc:
                outcome.append((exc, time.monotonic()))

        t = threading.Thread(target=client)
        t.start()
        carrier.start(make_config())
        time.sleep(0.2)  # let the client block in recv
        closed = time.monotonic()
        carrier.close()
        t.join(timeout=10.0)
        channel.close()
        assert outcome, "client did not get TransportError"
        assert outcome[0][1] - closed < 1.0

    def test_forged_update_length_rejected_from_header(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        with socket.create_connection(carrier.address[:2], timeout=10.0) as raw:
            raw.sendall(encode_envelope(Envelope(JOIN, 0, 0)))
            carrier.start(make_config())
            assert transport.read_frame(raw).kind == JOIN_ACK
            carrier.broadcast_model(1, np.zeros(2))
            assert transport.read_frame(raw).kind == GLOBAL_MODEL
            raw.sendall(transport.HEADER.pack(transport.MAGIC, transport.VERSION, LOCAL_UPDATE, 1, 0, 2**31))
            begin = time.monotonic()
            with pytest.raises(ProtocolError, match="client 0 declared a 2147483648-byte update"):
                carrier.gather_updates(1, timeout_s=5.0)
            assert time.monotonic() - begin < 0.5
        carrier.close()

    def test_forged_error_length_rejected_from_header(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        with socket.create_connection(carrier.address[:2], timeout=10.0) as raw:
            raw.sendall(encode_envelope(Envelope(JOIN, 0, 0)))
            carrier.start(make_config())
            assert transport.read_frame(raw).kind == JOIN_ACK
            carrier.broadcast_model(1, np.zeros(2))
            assert transport.read_frame(raw).kind == GLOBAL_MODEL
            raw.sendall(transport.HEADER.pack(transport.MAGIC, transport.VERSION, ERROR, 1, 0, 2**31))
            begin = time.monotonic()
            with pytest.raises(ProtocolError, match="client 0 declared a 2147483648-byte ERROR"):
                carrier.gather_updates(1, timeout_s=5.0)
            assert time.monotonic() - begin < 0.5
        carrier.close()

    def test_refusal_at_join_reported_as_one(self):
        # The raw client answers the JOIN_ACK with ERROR and keeps its socket
        # open until the server closes, so the ERROR cannot turn into a reset.
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        with socket.create_connection(carrier.address[:2], timeout=10.0) as raw:
            raw.sendall(encode_envelope(Envelope(JOIN, 0, 0)))
            carrier.start(make_config())
            assert transport.read_frame(raw).kind == JOIN_ACK
            raw.sendall(encode_envelope(Envelope(ERROR, 0, 0, b"client 0 settings differ from the server's")))
            carrier.broadcast_model(1, np.zeros(2))
            with pytest.raises(TransportError, match="^client 0 refused the session at JOIN: client 0 settings differ"):
                carrier.gather_updates(1, timeout_s=5.0)
            carrier.close()
            raw.settimeout(5.0)
            assert transport.read_frame(raw).kind == GLOBAL_MODEL
            assert raw.recv(1) == b""

    def test_clean_server_close_names_the_client(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            channel = TcpClientChannel(f"127.0.0.1:{listener.getsockname()[1]}", 3, timeout_s=5.0)

            def serve():  # read the JOIN, then close cleanly
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    transport.read_frame(conn)

            server = threading.Thread(target=serve)
            server.start()
            try:
                with pytest.raises(TransportError, match="client 3 lost the server: connection closed after 0 of 22"):
                    channel.join()
            finally:
                server.join(timeout=10.0)
                channel.close()

    @pytest.mark.parametrize("carrier_kind", ["in-process", "tcp"])
    def test_carrier_sized_for_another_client_count(self, carrier_kind):
        if carrier_kind == "tcp":
            carrier = TcpServerCarrier("127.0.0.1:0", num_clients=2, handshake_timeout_s=10.0)
        else:
            carrier = transport.InProcessCarrier([EchoWorker(0), EchoWorker(1)])
        try:
            with pytest.raises(ConfigError, match="the carrier serves 2 clients but run.clients is 3"):
                carrier.start(make_config(clients=3))
        finally:
            carrier.close()

    def test_identical_bytes_across_carriers(self):
        # The same model broadcast must reach clients as identical payload
        # bytes on both carriers.
        w = np.array([0.125, -3.75])
        inproc_worker = EchoWorker(0)
        inproc = transport.InProcessCarrier([inproc_worker])
        inproc.start(make_config(rounds=1))
        inproc.broadcast_model(1, w)
        inproc.gather_updates(1)

        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        port = carrier.address[1]
        seen = []

        def client():
            channel = TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=10.0)
            channel.join()
            env = channel.recv()
            seen.append(decode_vectors(env.payload)[0].tobytes())
            channel.send_update(env.round_num, [decode_vectors(env.payload)[0]])
            channel.recv()
            channel.close()

        t = threading.Thread(target=client)
        t.start()
        carrier.start(make_config(rounds=1))
        carrier.broadcast_model(1, w)
        carrier.gather_updates(1, timeout_s=10.0)
        carrier.finish()
        t.join(timeout=10.0)
        assert seen == inproc_worker.seen_payloads
