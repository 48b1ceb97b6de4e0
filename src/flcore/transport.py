"""Framed binary protocol and the two round-synchronous carriers.

Wire format (all integers little-endian):

    magic   4 bytes  "FLMP"
    version 1 byte   0x01
    kind    1 byte   JOIN=0, JOIN_ACK=1, GLOBAL_MODEL=2, LOCAL_UPDATE=3,
                     DONE=4, ERROR=5
    round   u32
    client  u32
    length  u64      payload byte count
    payload

Vectors inside payloads are a u64 count followed by that many f64 values.
GLOBAL_MODEL carries one vector (w); LOCAL_UPDATE carries one vector (z) for
FedAvg/IIADMM or two (z then lambda) for ICEADMM; JOIN_ACK carries the session
header (algorithm, model shape, round count) plus the initial model.

The in-process carrier pushes the very same encoded bytes through memory
queues that the TCP carrier pushes through sockets, so byte accounting and
decoded values are identical across carriers.
"""

from __future__ import annotations

import logging
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

import numpy as np

from .algorithms import ALGORITHMS
from .errors import ProtocolError, TransportError
from .models import ModelSpec

log = logging.getLogger("flcore.transport")

MAGIC = b"FLMP"
VERSION = 0x01
HEADER = struct.Struct("<4sBBIIQ")
HEADER_SIZE = HEADER.size  # 22 bytes

JOIN, JOIN_ACK, GLOBAL_MODEL, LOCAL_UPDATE, DONE, ERROR = range(6)
KIND_NAMES = ("JOIN", "JOIN_ACK", "GLOBAL_MODEL", "LOCAL_UPDATE", "DONE", "ERROR")

MAX_PAYLOAD = 1 << 32
_CONNECT_RETRY_S = 0.05

MODEL_CODES = {"linear-regression": 0, "softmax": 1, "mlp1": 2}
_ALGO_FROM_CODE = {algo.code: kind for kind, algo in ALGORITHMS.items()}
_MODEL_FROM_CODE = {v: k for k, v in MODEL_CODES.items()}


@dataclass(frozen=True)
class Envelope:
    kind: int
    round_num: int
    client_id: int
    payload: bytes = b""


@dataclass
class RoundBytes:
    """Per-round traffic counters; frame bytes include the 22-byte header."""

    bytes_down: int = 0
    bytes_up: int = 0
    payload_bytes_up: int = 0


@dataclass
class RoundMetrics:
    round_num: int
    train_loss: float = 0.0
    test_accuracy: float | None = None
    test_loss: float | None = None
    consensus_residual: float = 0.0
    bytes_up: int = 0
    bytes_down: int = 0
    payload_bytes_up: int = 0


@dataclass(frozen=True)
class SessionConfig:
    """What JOIN_ACK communicates: the server-authoritative run header."""

    model: ModelSpec
    algo_kind: str
    initial_w: np.ndarray
    rounds: int


# --- codec ----------------------------------------------------------------


def encode_envelope(env: Envelope) -> bytes:
    if not 0 <= env.kind < len(KIND_NAMES):
        raise ProtocolError(f"unknown envelope kind {env.kind}")
    if len(env.payload) >= MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(env.payload)} bytes exceeds the 2^32 limit")
    return HEADER.pack(MAGIC, VERSION, env.kind, env.round_num, env.client_id, len(env.payload)) + env.payload


def _parse_header(header: bytes) -> tuple[int, int, int, int]:
    magic, version, kind, round_num, client_id, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} at byte 0")
    if version != VERSION:
        raise ProtocolError(f"unsupported version 0x{version:02x} at byte 4")
    if kind >= len(KIND_NAMES):
        raise ProtocolError(f"unknown kind byte 0x{kind:02x} at byte 5")
    if length >= MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {length} bytes at byte 14 exceeds the limit")
    return kind, round_num, client_id, length


def decode_envelope(data: bytes) -> Envelope:
    """Decode one complete frame; any malformation raises ProtocolError."""
    if len(data) < HEADER_SIZE:
        raise ProtocolError(f"truncated frame: {len(data)} bytes, header needs {HEADER_SIZE}")
    kind, round_num, client_id, length = _parse_header(data[:HEADER_SIZE])
    if len(data) != HEADER_SIZE + length:
        raise ProtocolError(
            f"frame length mismatch at byte {HEADER_SIZE}: declared {length} payload bytes, got {len(data) - HEADER_SIZE}"
        )
    return Envelope(kind, round_num, client_id, data[HEADER_SIZE:])


def encode_vector(values: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(values, dtype="<f8")
    return struct.pack("<Q", arr.shape[0]) + arr.tobytes()


def decode_vectors(payload: bytes) -> list[np.ndarray]:
    """Parse consecutive length-prefixed vectors; rejects trailing garbage."""
    vectors = []
    offset = 0
    while offset < len(payload):
        if len(payload) - offset < 8:
            raise ProtocolError(f"truncated vector count at byte {offset}")
        (count,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        need = 8 * count
        if len(payload) - offset < need:
            raise ProtocolError(f"truncated vector body at byte {offset}: wanted {need} bytes")
        vectors.append(np.frombuffer(payload, dtype="<f8", count=count, offset=offset).copy())
        offset += need
    return vectors


def encode_update_payload(arrays: list[np.ndarray]) -> bytes:
    return b"".join(encode_vector(a) for a in arrays)


def payload_size(algo_kind: str, m: int) -> int:
    """Upstream LOCAL_UPDATE payload bytes for a model of dimension m."""
    if m < 1:
        raise ProtocolError(f"model dimension must be positive, got {m}")
    return ALGORITHMS[algo_kind].vectors_up * (8 + 8 * m)


_ACK_HEAD = struct.Struct("<BBIIII")


def encode_join_ack(session: SessionConfig) -> bytes:
    head = _ACK_HEAD.pack(
        ALGORITHMS[session.algo_kind].code,
        MODEL_CODES[session.model.kind],
        session.model.input_dim,
        session.model.output_dim,
        session.model.hidden_dim,
        session.rounds,
    )
    return head + encode_vector(session.initial_w)


def decode_join_ack(payload: bytes) -> SessionConfig:
    if len(payload) < _ACK_HEAD.size:
        raise ProtocolError(f"truncated JOIN_ACK at byte {len(payload)}")
    algo_code, model_code, input_dim, output_dim, hidden_dim, rounds = _ACK_HEAD.unpack_from(payload)
    if algo_code not in _ALGO_FROM_CODE:
        raise ProtocolError(f"unknown algorithm code {algo_code} at byte 0")
    if model_code not in _MODEL_FROM_CODE:
        raise ProtocolError(f"unknown model code {model_code} at byte 1")
    vectors = decode_vectors(payload[_ACK_HEAD.size :])
    if len(vectors) != 1:
        raise ProtocolError("JOIN_ACK must carry exactly the initial model vector")
    spec = ModelSpec(_MODEL_FROM_CODE[model_code], input_dim, output_dim, hidden_dim)
    return SessionConfig(model=spec, algo_kind=_ALGO_FROM_CODE[algo_code], initial_w=vectors[0], rounds=rounds)


# --- gather bookkeeping shared by both carriers -----------------------------


class _UpdateCollector:
    """Validates and orders LOCAL_UPDATE envelopes for one round."""

    def __init__(self, num_clients: int, round_num: int, counters: RoundBytes):
        self.num_clients = num_clients
        self.round_num = round_num
        self.counters = counters
        self.collected: dict[int, Envelope] = {}

    def offer(self, env: Envelope) -> None:
        if env.kind == ERROR:
            raise TransportError(f"client {env.client_id} reported: {env.payload.decode('utf-8', 'replace')}")
        if env.kind != LOCAL_UPDATE:
            raise ProtocolError(f"expected LOCAL_UPDATE, got {KIND_NAMES[env.kind]} from client {env.client_id}")
        if env.round_num < self.round_num:
            log.debug("dropping stale round-%d update from client %d", env.round_num, env.client_id)
            return
        if env.round_num > self.round_num:
            raise ProtocolError(
                f"client {env.client_id} sent round {env.round_num} during round {self.round_num}"
            )
        if env.client_id in self.collected:
            raise ProtocolError(f"duplicate round-{self.round_num} update from client {env.client_id}")
        if env.client_id >= self.num_clients:
            raise ProtocolError(f"update from unknown client {env.client_id}")
        self.collected[env.client_id] = env
        self.counters.bytes_up += HEADER_SIZE + len(env.payload)
        self.counters.payload_bytes_up += len(env.payload)

    @property
    def complete(self) -> bool:
        return len(self.collected) == self.num_clients

    def missing(self) -> list[int]:
        return sorted(set(range(self.num_clients)) - set(self.collected))

    def result(self) -> list[Envelope]:
        return [self.collected[cid] for cid in sorted(self.collected)]


# --- in-process carrier -----------------------------------------------------


class InProcessCarrier:
    """Memory-channel carrier: drives worker objects through the same codec.

    Workers with equal ``group_key`` run each round through one
    ``handle_group`` call on their class, but every client still gets its
    own GLOBAL_MODEL frame decoded and its own LOCAL_UPDATE frame encoded.
    """

    def __init__(self, workers):
        ids = [w.client_id for w in workers]
        if sorted(ids) != list(range(len(workers))):
            raise TransportError(f"workers must cover ids 0..{len(workers) - 1}, got {sorted(ids)}")
        self.workers = sorted(workers, key=lambda w: w.client_id)
        groups: dict = {}
        for worker in self.workers:
            groups.setdefault(worker.group_key, []).append(worker)
        self.groups = list(groups.values())
        self.round_bytes = RoundBytes()
        self._pending: list[bytes] = []

    @property
    def num_clients(self) -> int:
        return len(self.workers)

    def reset_round_bytes(self) -> None:
        self.round_bytes = RoundBytes()

    def start(self, session: SessionConfig) -> None:
        ack_payload = encode_join_ack(session)
        for worker in self.workers:
            join = decode_envelope(encode_envelope(Envelope(JOIN, 0, worker.client_id)))
            if join.client_id != worker.client_id:
                raise TransportError("join id mismatch")
            ack = decode_envelope(encode_envelope(Envelope(JOIN_ACK, 0, worker.client_id, ack_payload)))
            worker.handle_join_ack(decode_join_ack(ack.payload))

    def broadcast_model(self, round_num: int, w: np.ndarray) -> None:
        frame = encode_envelope(Envelope(GLOBAL_MODEL, round_num, 0, encode_vector(w)))
        self.round_bytes.bytes_down += len(frame) * len(self.workers)
        self._pending = []
        for group in self.groups:
            envs = [decode_envelope(frame) for _ in group]
            models = np.stack([decode_vectors(env.payload)[0] for env in envs])
            updates = type(group[0]).handle_group(group, envs[0].round_num, models)
            for worker, env, arrays in zip(group, envs, updates):
                reply = Envelope(LOCAL_UPDATE, env.round_num, worker.client_id, encode_update_payload(arrays))
                self._pending.append(encode_envelope(reply))

    def gather_updates(self, round_num: int, timeout_s: float = 60.0) -> list[Envelope]:
        collector = _UpdateCollector(self.num_clients, round_num, self.round_bytes)
        for frame in self._pending:
            collector.offer(decode_envelope(frame))
        self._pending = []
        if not collector.complete:
            raise TransportError(f"round {round_num} missing updates from clients {collector.missing()}")
        return collector.result()

    def finish(self) -> None:
        frame = encode_envelope(Envelope(DONE, 0, 0))
        for worker in self.workers:
            worker.handle_done(decode_envelope(frame))

    def close(self) -> None:
        pass


# --- TCP carrier ------------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    buf = bytearray()
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            raise TransportError(f"connection closed after {len(buf)} of {count} bytes")
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket) -> Envelope:
    header = _recv_exact(sock, HEADER_SIZE)
    kind, round_num, client_id, length = _parse_header(header)
    payload = _recv_exact(sock, length) if length else b""
    return Envelope(kind, round_num, client_id, payload)


def send_frame(sock: socket.socket, env: Envelope) -> int:
    frame = encode_envelope(env)
    sock.sendall(frame)
    return len(frame)


class TcpServerCarrier:
    """Accepts exactly P distinct clients, then drives synchronous rounds."""

    def __init__(self, bind_addr: str, num_clients: int, handshake_timeout_s: float = 60.0):
        host, _, port = bind_addr.rpartition(":")
        if not host:
            raise TransportError(f"bind address {bind_addr!r} must look like HOST:PORT")
        self.num_clients = num_clients
        self.handshake_timeout_s = handshake_timeout_s
        self.round_bytes = RoundBytes()
        self._conns: dict[int, socket.socket] = {}
        self._inbox: queue.Queue = queue.Queue()
        self._readers: list[threading.Thread] = []
        self._listener = socket.create_server((host, int(port)), reuse_port=False)
        self.address = self._listener.getsockname()

    def reset_round_bytes(self) -> None:
        self.round_bytes = RoundBytes()

    def start(self, session: SessionConfig) -> None:
        ack_payload = encode_join_ack(session)
        self._listener.settimeout(self.handshake_timeout_s)
        try:
            while len(self._conns) < self.num_clients:
                try:
                    conn, peer = self._listener.accept()
                except socket.timeout:
                    missing = sorted(set(range(self.num_clients)) - set(self._conns))
                    raise TransportError(f"handshake timed out waiting for clients {missing}")
                try:
                    env = read_frame(conn)
                except (ProtocolError, TransportError) as exc:
                    log.warning("rejecting %s during handshake: %s", peer, exc)
                    conn.close()
                    continue
                if env.kind != JOIN:
                    send_frame(conn, Envelope(ERROR, 0, env.client_id, b"expected JOIN"))
                    conn.close()
                    continue
                cid = env.client_id
                if cid >= self.num_clients:
                    send_frame(conn, Envelope(ERROR, 0, cid, f"client id {cid} out of range".encode()))
                    conn.close()
                    continue
                if cid in self._conns:
                    send_frame(conn, Envelope(ERROR, 0, cid, f"client id {cid} already joined".encode()))
                    conn.close()
                    continue
                self._conns[cid] = conn
        finally:
            self._listener.settimeout(None)
        for cid in sorted(self._conns):
            send_frame(self._conns[cid], Envelope(JOIN_ACK, 0, cid, ack_payload))
        for cid, conn in self._conns.items():
            reader = threading.Thread(target=self._read_loop, args=(cid, conn), daemon=True)
            reader.start()
            self._readers.append(reader)

    def _read_loop(self, cid: int, conn: socket.socket) -> None:
        try:
            while True:
                self._inbox.put(("env", cid, read_frame(conn)))
        except (TransportError, ProtocolError, OSError) as exc:
            self._inbox.put(("eof", cid, exc))

    def broadcast_model(self, round_num: int, w: np.ndarray) -> None:
        frame = encode_envelope(Envelope(GLOBAL_MODEL, round_num, 0, encode_vector(w)))
        for cid in sorted(self._conns):
            self._conns[cid].sendall(frame)
            self.round_bytes.bytes_down += len(frame)

    def gather_updates(self, round_num: int, timeout_s: float = 60.0) -> list[Envelope]:
        collector = _UpdateCollector(self.num_clients, round_num, self.round_bytes)
        end = time.monotonic() + timeout_s
        while not collector.complete:
            remaining = end - time.monotonic()
            if remaining <= 0:
                raise TransportError(f"round {round_num} timed out; missing clients {collector.missing()}")
            try:
                tag, cid, item = self._inbox.get(timeout=remaining)
            except queue.Empty:
                raise TransportError(f"round {round_num} timed out; missing clients {collector.missing()}")
            if tag == "eof":
                if cid not in collector.collected:
                    raise TransportError(f"lost client {cid} during round {round_num}: {item}")
                log.debug("client %d closed after delivering round %d", cid, round_num)
                continue
            collector.offer(item)
        return collector.result()

    def finish(self) -> None:
        frame = encode_envelope(Envelope(DONE, 0, 0))
        for cid in sorted(self._conns):
            try:
                self._conns[cid].sendall(frame)
            except OSError:
                log.warning("could not deliver DONE to client %d", cid)
        self.close()

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._listener.close()


class TcpClientChannel:
    """Client end of the protocol: JOIN, then rounds until DONE.

    A refused connection is retried until ``timeout_s`` has passed, so a
    client may be started before its server is listening.
    """

    def __init__(self, addr: str, client_id: int, timeout_s: float = 60.0):
        host, _, port = addr.rpartition(":")
        if not host:
            raise TransportError(f"address {addr!r} must look like HOST:PORT")
        self.client_id = client_id
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self._sock = socket.create_connection((host, int(port)), timeout=timeout_s)
                break
            except ConnectionRefusedError as exc:
                if time.monotonic() >= deadline:
                    raise TransportError(f"no server at {addr} within {timeout_s:g} s: {exc}") from exc
                time.sleep(_CONNECT_RETRY_S)
        self._sock.settimeout(timeout_s)

    def join(self) -> SessionConfig:
        send_frame(self._sock, Envelope(JOIN, 0, self.client_id))
        env = read_frame(self._sock)
        if env.kind == ERROR:
            raise TransportError(f"join rejected: {env.payload.decode('utf-8', 'replace')}")
        if env.kind != JOIN_ACK:
            raise ProtocolError(f"expected JOIN_ACK, got {KIND_NAMES[env.kind]}")
        return decode_join_ack(env.payload)

    def recv(self) -> Envelope:
        return read_frame(self._sock)

    def send_update(self, round_num: int, arrays: list[np.ndarray]) -> None:
        env = Envelope(LOCAL_UPDATE, round_num, self.client_id, encode_update_payload(arrays))
        send_frame(self._sock, env)

    def send_error(self, round_num: int, message: str) -> None:
        send_frame(self._sock, Envelope(ERROR, round_num, self.client_id, message.encode()))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
