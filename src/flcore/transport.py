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
FedAvg/IIADMM or two (z then lambda) for ICEADMM; JOIN_ACK carries the
server's shared settings (``config.shared_settings``) as canonical JSON, which
each client compares with its own before it answers a round.

The in-process carrier hands over the same encoded payloads in memory, without
frame headers, so both carriers decode the same values and count the same bytes.

Rounds are synchronous: the server sends GLOBAL_MODEL to every client, then
reads exactly one frame per client, in id order, from that client's own
channel.  Over TCP, that frame must be the client's LOCAL_UPDATE for the
round, of the size the session fixes, or its ERROR (``check_update``).  Every
server wait is bounded: the handshake by one deadline, each send by the
carrier's timeout, and each round's reads by one round deadline (``run.timeout_s``).
"""

from __future__ import annotations

import json
import logging
import os
import selectors
import socket
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algorithms import ALGORITHMS
from .config import RunConfig, shared_settings
from .errors import ConfigError, ProtocolError, TransportError
from .models import param_count

log = logging.getLogger("flcore.transport")

MAGIC = b"FLMP"
VERSION = 0x01
HEADER = struct.Struct("<4sBBIIQ")
HEADER_SIZE = HEADER.size  # 22 bytes

JOIN, JOIN_ACK, GLOBAL_MODEL, LOCAL_UPDATE, DONE, ERROR = range(6)
KIND_NAMES = ("JOIN", "JOIN_ACK", "GLOBAL_MODEL", "LOCAL_UPDATE", "DONE", "ERROR")

MAX_PAYLOAD = 1 << 32
# An ERROR carries one message; the longest real one, a settings diff, is a few KB.
MAX_ERROR_PAYLOAD = 64 * 1024
_CONNECT_RETRY_S = 0.05


@dataclass(frozen=True)
class Envelope:
    kind: int
    round_num: int
    client_id: int
    payload: bytes = b""


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


def encode_join_ack(config: RunConfig) -> bytes:
    """The JOIN_ACK payload: the config's shared settings as canonical JSON."""
    return json.dumps(shared_settings(config), sort_keys=True, separators=(",", ":")).encode()


def decode_join_ack(payload: bytes) -> dict:
    """The shared settings a JOIN_ACK carries; a payload that is not a JSON object is a ProtocolError."""
    try:
        settings = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"JOIN_ACK payload is not UTF-8 JSON: {exc}") from None
    if not isinstance(settings, dict):
        raise ProtocolError(f"JOIN_ACK payload must be a JSON object, got {type(settings).__name__}")
    return settings


# --- the TCP server's gather check ------------------------------------------


def check_update(header: bytes, client_id: int, round_num: int, size: int) -> tuple[int, int, int, int]:
    """Parse the header of the frame gathered from client p's channel in round t.

    It must be p's LOCAL_UPDATE for round t declaring ``size`` bytes, or p's
    ERROR of at most MAX_ERROR_PAYLOAD bytes.  Anything else, a stale round
    too (with synchronous rounds it can only be a duplicate), is a
    ProtocolError naming p.  Returns the fields.
    """
    try:
        kind, env_round, env_client, length = _parse_header(header)
    except ProtocolError as exc:
        raise ProtocolError(f"client {client_id}: {exc}") from None
    if env_client != client_id:
        raise ProtocolError(f"client {client_id} sent a frame as client {env_client}")
    if kind != ERROR and (kind != LOCAL_UPDATE or env_round != round_num):
        raise ProtocolError(
            f"client {client_id} sent {KIND_NAMES[kind]} for round {env_round} during round {round_num}"
        )
    if kind == LOCAL_UPDATE and length != size:
        raise ProtocolError(f"client {client_id} declared a {length}-byte update; the session's is {size} bytes")
    if kind == ERROR and length > MAX_ERROR_PAYLOAD:
        raise ProtocolError(f"client {client_id} declared a {length}-byte ERROR; the cap is {MAX_ERROR_PAYLOAD}")
    return kind, env_round, env_client, length


def _check_client_count(carrier_clients: int, config: RunConfig) -> None:
    if carrier_clients != config.clients:
        raise ConfigError(f"the carrier serves {carrier_clients} clients but run.clients is {config.clients}")


# --- in-process carrier -----------------------------------------------------


# Groups run concurrently only if each group's gradient calls do this much work
# (clients x rows per call x parameters); below it, GIL handoffs between small numpy
# calls cost more than another core gives back (scripts/group_concurrency_sweep.py).
CONCURRENT_WORK = 1 << 21


class InProcessCarrier:
    """Memory-channel carrier: drives worker objects with the codec's payloads.

    Each round encodes and decodes the model payload once, runs workers of
    equal ``group_key`` through one ``handle_group`` call on their class (a
    lone worker through its ``handle_global``), and wraps each reply's
    encoded payload in an Envelope; no frame is built.  If every one of
    several groups does CONCURRENT_WORK per gradient call, K = min(groups,
    usable CPUs) lanes run them: the calling thread runs groups 0, K, 2K, ...
    and K - 1 pool threads the rest, striped alike, each on one BLAS thread:
    every lane's ``handle_group`` sets 1, and none sets the count back.
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
        self.lanes = 1
        self._pool: ThreadPoolExecutor | None = None
        self._pending: list[Envelope] = []

    def start(self, config: RunConfig) -> None:
        _check_client_count(len(self.workers), config)
        settings = decode_join_ack(encode_join_ack(config))
        for worker in self.workers:
            worker.handle_join_ack(settings)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        work = min(len(group) * group[0].step_rows for group in self.groups) * param_count(config.model)
        if len(self.groups) > 1 and cpus > 1 and work >= CONCURRENT_WORK:
            self.lanes = min(len(self.groups), cpus)
            self._pool = ThreadPoolExecutor(self.lanes - 1, thread_name_prefix="flcore-group")

    def _run_lane(self, lane: int, round_num: int, w: np.ndarray, results: list) -> None:
        """Run groups lane, lane + K, ... into ``results``; a group that raises leaves its exception there and ends the lane."""
        for k in range(lane, len(self.groups), self.lanes):
            group = self.groups[k]
            try:
                if len(group) == 1:
                    results[k] = [group[0].handle_global(round_num, w)]
                else:
                    results[k] = type(group[0]).handle_group(group, round_num, np.repeat(w[None], len(group), 0))
            except Exception as exc:
                results[k] = exc
                return

    def broadcast_model(self, round_num: int, w: np.ndarray) -> int:
        """Run every client's round; returns the GLOBAL_MODEL bytes a framed carrier would send."""
        payload = encode_vector(w)
        sent = decode_vectors(payload)[0]
        results: list = [None] * len(self.groups)
        futures = [self._pool.submit(self._run_lane, lane, round_num, sent, results) for lane in range(1, self.lanes)]
        self._run_lane(0, round_num, sent, results)
        for future in futures:
            future.result()
        self._pending = []
        for group, updates in zip(self.groups, results):
            if isinstance(updates, Exception):
                raise updates  # the first group, in client id order, that raised
            for worker, arrays in zip(group, updates):
                self._pending.append(Envelope(LOCAL_UPDATE, round_num, worker.client_id, encode_update_payload(arrays)))
        return (HEADER_SIZE + len(payload)) * len(self.workers)

    def gather_updates(self, round_num: int, timeout_s: float = 60.0) -> list[Envelope]:
        envs, self._pending = self._pending, []
        return sorted(envs, key=lambda env: env.client_id)

    def finish(self) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


# --- TCP carrier ------------------------------------------------------------


def _split_address(addr: str) -> tuple[str, int]:
    """(host, port) of a HOST:PORT address; anything else is a TransportError naming it."""
    host, _, port = addr.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise TransportError(f"address {addr!r} must look like HOST:PORT with a port in 0..65535")
    return host, int(port)


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``, at least 1 us: past it, a socket wait times out at once."""
    return max(deadline - time.monotonic(), 1e-6)


def _recv_exact(sock: socket.socket, count: int, deadline: float | None = None) -> bytes:
    buf = bytearray()
    while len(buf) < count:
        if deadline is not None:
            sock.settimeout(_time_left(deadline))
        chunk = sock.recv(count - len(buf))
        if not chunk:
            raise TransportError(f"connection closed after {len(buf)} of {count} bytes")
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket) -> Envelope:
    """One frame, under the socket's own timeout."""
    kind, round_num, client_id, length = _parse_header(_recv_exact(sock, HEADER_SIZE))
    return Envelope(kind, round_num, client_id, _recv_exact(sock, length))


class TcpServerCarrier:
    """Accepts exactly P distinct clients, then drives synchronous rounds.

    ``handshake_timeout_s`` bounds the whole handshake, every accept and
    JOIN read under one deadline, and also each send to a client (JOIN_ACK,
    GLOBAL_MODEL, DONE).  A round's reads are bounded by the ``timeout_s``
    given to ``gather_updates``.
    """

    def __init__(self, bind_addr: str, num_clients: int, handshake_timeout_s: float = 60.0):
        host, port = _split_address(bind_addr)
        self.num_clients = num_clients
        self.handshake_timeout_s = handshake_timeout_s
        self._conns: dict[int, socket.socket] = {}
        self._update_size = 0
        self._listener = socket.create_server((host, port), reuse_port=False)
        self.address = self._listener.getsockname()

    def start(self, config: RunConfig) -> None:
        _check_client_count(self.num_clients, config)
        self._update_size = payload_size(config.algo.kind, param_count(config.model))
        deadline = time.monotonic() + self.handshake_timeout_s
        # One selector serves every peer at once: it accepts whoever is
        # pending and reads JOIN bytes from whichever socket has them, so a
        # silent peer holds only its own connection, not the handshake.
        with selectors.DefaultSelector() as selector:
            self._listener.setblocking(False)
            selector.register(self._listener, selectors.EVENT_READ)
            try:
                while len(self._conns) < self.num_clients:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        missing = sorted(set(range(self.num_clients)) - set(self._conns))
                        raise TransportError(
                            f"handshake timed out after {self.handshake_timeout_s:g} s waiting for clients {missing}"
                        )
                    for key, _ in selector.select(left):
                        if key.fileobj is self._listener:
                            try:
                                conn, peer = self._listener.accept()
                            except (BlockingIOError, ConnectionAbortedError):
                                continue  # the peer left between select and accept
                            conn.setblocking(False)
                            selector.register(conn, selectors.EVENT_READ, (peer, bytearray()))
                        else:
                            self._read_join(selector, key.fileobj, *key.data)
            finally:
                for key in selector.get_map().values():
                    if key.fileobj is not self._listener:
                        key.fileobj.close()
        ack_payload = encode_join_ack(config)
        for cid in sorted(self._conns):
            self._send(cid, encode_envelope(Envelope(JOIN_ACK, 0, cid, ack_payload)))

    def _read_join(self, selector, conn: socket.socket, peer, buf: bytearray) -> None:
        """Take the bytes a handshaking peer has sent; once its JOIN header is whole, admit or reject it."""
        try:
            chunk = conn.recv(HEADER_SIZE - len(buf))
            if not chunk:
                raise TransportError(f"connection closed after {len(buf)} bytes")
            buf += chunk
            if len(buf) < HEADER_SIZE:
                return
            kind, _, cid, length = _parse_header(bytes(buf))
        except (ProtocolError, TransportError, OSError) as exc:
            selector.unregister(conn)
            conn.close()
            log.warning("rejecting %s during handshake: %s", peer, exc)
            return
        selector.unregister(conn)
        if kind != JOIN or length:
            reason = "expected a JOIN without payload"
        elif cid >= self.num_clients:
            reason = f"client id {cid} out of range"
        elif cid in self._conns:
            reason = f"client id {cid} already joined"
        else:
            self._conns[cid] = conn
            return
        try:  # best effort: the peer is dropped either way
            conn.sendall(encode_envelope(Envelope(ERROR, 0, cid, reason.encode())))
        except OSError:
            pass
        conn.close()

    def _send(self, cid: int, frame: bytes) -> None:
        conn = self._conns[cid]
        conn.settimeout(self.handshake_timeout_s)
        try:
            conn.sendall(frame)
        except OSError as exc:
            raise TransportError(
                f"could not send {KIND_NAMES[frame[5]]} to client {cid} within {self.handshake_timeout_s:g} s: {exc}"
            ) from exc

    def broadcast_model(self, round_num: int, w: np.ndarray) -> int:
        """Send GLOBAL_MODEL to every client in id order; returns the bytes sent."""
        frame = encode_envelope(Envelope(GLOBAL_MODEL, round_num, 0, encode_vector(w)))
        for cid in sorted(self._conns):
            self._send(cid, frame)
        return len(frame) * len(self._conns)

    def gather_updates(self, round_num: int, timeout_s: float = 60.0) -> list[Envelope]:
        """Read one frame from each client, in id order, before one round deadline."""
        deadline = time.monotonic() + timeout_s
        envs = []
        for cid in range(self.num_clients):
            conn = self._conns[cid]
            try:
                header = check_update(_recv_exact(conn, HEADER_SIZE, deadline), cid, round_num, self._update_size)
                env = Envelope(*header[:3], _recv_exact(conn, header[3], deadline))
            except TimeoutError:
                missing = list(range(cid, self.num_clients))
                raise TransportError(f"round {round_num} timed out after {timeout_s:g} s; missing clients {missing}") from None
            except (TransportError, OSError) as exc:
                raise TransportError(f"lost client {cid} during round {round_num}: {exc}") from exc
            if env.kind == ERROR:
                # A client that refuses the server's settings answers the JOIN_ACK, in round 0.
                what = "refused the session at JOIN" if env.round_num == 0 else "reported"
                raise TransportError(f"client {cid} {what}: {env.payload.decode('utf-8', 'replace')}")
            envs.append(env)
        return envs

    def finish(self) -> None:
        frame = encode_envelope(Envelope(DONE, 0, 0))
        for cid in sorted(self._conns):
            self._send(cid, frame)
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
        host, port = _split_address(addr)
        self.client_id = client_id
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout_s)
                break
            except ConnectionRefusedError as exc:
                if time.monotonic() >= deadline:
                    raise TransportError(f"no server at {addr} within {timeout_s:g} s: {exc}") from exc
                time.sleep(_CONNECT_RETRY_S)
        self._sock.settimeout(timeout_s)

    def join(self) -> dict:
        """JOIN, then the server's shared settings from its JOIN_ACK."""
        self._send(Envelope(JOIN, 0, self.client_id))
        env = self.recv()
        if env.kind == ERROR:
            raise TransportError(f"join rejected: {env.payload.decode('utf-8', 'replace')}")
        if env.kind != JOIN_ACK:
            raise ProtocolError(f"expected JOIN_ACK, got {KIND_NAMES[env.kind]}")
        return decode_join_ack(env.payload)

    def recv(self) -> Envelope:
        try:
            return read_frame(self._sock)
        except (OSError, TransportError) as exc:  # a timeout, a reset or a clean close
            raise TransportError(f"client {self.client_id} lost the server: {exc}") from exc

    def send_update(self, round_num: int, arrays: list[np.ndarray]) -> None:
        self._send(Envelope(LOCAL_UPDATE, round_num, self.client_id, encode_update_payload(arrays)))

    def send_error(self, round_num: int, message: str) -> None:
        self._send(Envelope(ERROR, round_num, self.client_id, message.encode()[:MAX_ERROR_PAYLOAD]))

    def _send(self, env: Envelope) -> None:
        try:
            self._sock.sendall(encode_envelope(env))
        except OSError as exc:
            raise TransportError(f"client {self.client_id} could not send {KIND_NAMES[env.kind]}: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
