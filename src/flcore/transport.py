"""Framed binary protocol and the two round-synchronous carriers.

Wire format (all integers little-endian):

    magic   4 bytes  "FLMP"
    version 1 byte   0x01
    kind    1 byte   JOIN=0, JOIN_ACK=1, GLOBAL_MODEL=2, LOCAL_UPDATE=3,
                     DONE=4, ERROR=5, TRAIN_LOSS=6
    round   u32
    client  u32
    length  u64      payload byte count
    payload

Vectors inside payloads are a u64 count followed by that many f64 values.
GLOBAL_MODEL carries one vector (w); LOCAL_UPDATE carries one vector (z) for
FedAvg/IIADMM or two (z then lambda) for ICEADMM; TRAIN_LOSS carries one
vector of one value, the client's loss at that z on its own rows; JOIN_ACK carries the
server's shared settings (``config.shared_settings``) as canonical JSON, which
each client compares with its own before it answers a round.

The in-process carrier hands over the same encoded payloads in memory, without
frame headers, so both carriers decode the same values and count the same bytes;
it hands over each client's train loss as the float itself.
A large in-process run spreads its clients over lane processes, forked at the
run's start and killed and reaped at its end (``InProcessCarrier``).

Rounds are synchronous: the server sends GLOBAL_MODEL to every client, then
reads exactly one frame per client, in id order, from that client's own
channel.  Over TCP, that frame must be the client's LOCAL_UPDATE for the
round, of the size the session fixes, or its ERROR (``check_update``).  A
client sends its TRAIN_LOSS in the same write, right after its LOCAL_UPDATE;
the server reads those, one per client in id order, after its aggregate.  Every
server wait is bounded: the handshake by one deadline, each send by the
carrier's timeout, and each round's reads by one round deadline (``run.timeout_s``).
"""

from __future__ import annotations

import ctypes
import json
import logging
import multiprocessing
import os
import selectors
import signal
import socket
import struct
import threading
import time
import traceback
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

JOIN, JOIN_ACK, GLOBAL_MODEL, LOCAL_UPDATE, DONE, ERROR, TRAIN_LOSS = range(7)
KIND_NAMES = ("JOIN", "JOIN_ACK", "GLOBAL_MODEL", "LOCAL_UPDATE", "DONE", "ERROR", "TRAIN_LOSS")

MAX_PAYLOAD = 1 << 32
# An ERROR carries one message; the longest real one, a settings diff, is a few KB.
MAX_ERROR_PAYLOAD = 64 * 1024
LOSS_SIZE = 16  # a TRAIN_LOSS payload: one vector of one value
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


def check_update(
    header: bytes, client_id: int, round_num: int, size: int, expected: int = LOCAL_UPDATE
) -> tuple[int, int, int, int]:
    """Parse the header of a frame gathered from client p's channel in round t.

    It must be p's ``expected`` frame (LOCAL_UPDATE or TRAIN_LOSS) for round
    t declaring ``size`` bytes, or p's ERROR of at most MAX_ERROR_PAYLOAD
    bytes.  Anything else, a stale round too (with synchronous rounds it can
    only be a duplicate), is a ProtocolError naming p.  Returns the fields.
    """
    try:
        kind, env_round, env_client, length = _parse_header(header)
    except ProtocolError as exc:
        raise ProtocolError(f"client {client_id}: {exc}") from None
    if env_client != client_id:
        raise ProtocolError(f"client {client_id} sent a frame as client {env_client}")
    if kind != ERROR and (kind != expected or env_round != round_num):
        raise ProtocolError(
            f"client {client_id} sent {KIND_NAMES[kind]} for round {env_round} during round {round_num}"
        )
    if kind == expected and length != size:
        what = "update" if expected == LOCAL_UPDATE else "train loss"
        raise ProtocolError(f"client {client_id} declared a {length}-byte {what}; the session's is {size} bytes")
    if kind == ERROR and length > MAX_ERROR_PAYLOAD:
        raise ProtocolError(f"client {client_id} declared a {length}-byte ERROR; the cap is {MAX_ERROR_PAYLOAD}")
    return kind, env_round, env_client, length


def _check_client_count(carrier_clients: int, config: RunConfig) -> None:
    if carrier_clients != config.clients:
        raise ConfigError(f"the carrier serves {carrier_clients} clients but run.clients is {config.clients}")


# --- in-process carrier -----------------------------------------------------


# A run's clients go to lane processes only if a round's client work (rows x
# local steps x parameters, summed over clients) reaches this; below it, a
# lane's pipe round trip costs more than its core gives back
# (scripts/group_concurrency_sweep.py, BENCH_process_lanes.json).
LANE_WORK = 1 << 22

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _may_fork() -> bool:
    """Fork only from the main thread, with no other thread running.

    A fork copies only the calling thread, so locks that another thread held
    would stay held in the lane; and a lane's parent-death signal fires when
    the thread that forked it ends, which the main thread does last.
    """
    return hasattr(os, "fork") and threading.current_thread() is threading.main_thread() and threading.active_count() == 1


def _chunks(workers: list, k: int) -> list[list]:
    """``workers`` (in id order) cut into k contiguous, nonempty runs of about equal rows."""
    ends = np.cumsum([worker.local.size for worker in workers])
    cuts = [0]
    for j in range(1, k):
        nearest = int(np.argmin(np.abs(ends - ends[-1] * j / k))) + 1
        cuts.append(min(max(nearest, cuts[-1] + 1), len(workers) - k + j))
    cuts.append(len(workers))
    return [workers[a:b] for a, b in zip(cuts, cuts[1:])]


def _parts(groups: list[list], chunk: list) -> list[list]:
    """The nonempty parts of ``groups`` that fall in ``chunk``, in the groups' order."""
    ids = {worker.client_id for worker in chunk}
    return [part for part in ([w for w in group if w.client_id in ids] for group in groups) if part]


def _run_parts(parts: list[list], round_num: int, w: np.ndarray) -> list:
    """Each part's ``(payloads, train loss)`` per worker, in order.

    A part that raises leaves its exception as the last entry.
    """
    results = []
    for part in parts:
        try:
            if len(part) == 1:
                updates = [part[0].handle_global(round_num, w)]
            else:
                updates = type(part[0]).handle_group(part, round_num, np.repeat(w[None], len(part), 0))
            results.append([(arrays, worker.train_loss(arrays[0])) for worker, arrays in zip(part, updates)])
        except Exception as exc:
            results.append(exc)
            break
    return results


def _serve_lane(conn, parent: int, parts: list[list]) -> None:
    """A lane's loop: each ``(round, w)`` message runs a round of ``parts`` and answers, per part,
    each worker's ``(payloads, train loss, carried state)`` or the part's exception.  Ends when the pipe closes."""
    try:  # best effort: die with the parent, even a SIGKILLed one
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent:  # the parent ended before the signal was armed
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    fd = conn.fileno()
    os.closerange(3, fd)
    os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        conn.send(_lane_reply(parts, _run_parts(parts, *message)))


def _lane_reply(parts: list[list], results: list) -> list:
    """Per part, each worker's ``(payloads, train loss, carried state)``, or the part's exception."""
    return [
        result if isinstance(result, Exception) else [(*update, w.carried) for w, update in zip(part, result)]
        for part, result in zip(parts, results)
    ]


class _Lane:
    """A lane process, forked to run ``parts``, and the parent's end of its pipe."""

    def __init__(self, parts: list[list]):
        parent = os.getpid()
        self.conn, child = multiprocessing.Pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the lane: it leaves only through os._exit
            status = 1
            try:
                _serve_lane(child, parent, parts)
                status = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(status)
        child.close()

    def stop(self) -> None:
        """Kill and reap the lane; a no-op once done."""
        if self.conn.closed:
            return
        self.conn.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped by someone else
            pass


class InProcessCarrier:
    """Memory-channel carrier: drives worker objects with the codec's payloads.

    Each round encodes and decodes the model payload once, runs workers of
    equal ``group_key`` through one ``handle_group`` call on their class (a
    lone worker through its ``handle_global``), then each worker's
    ``train_loss`` at its outgoing z, and wraps each reply's encoded payload
    in an Envelope; no frame is built.

    A large run uses every usable CPU.  If ``os.fork`` exists, ``start`` runs
    on the main thread with no other thread running, more than one CPU is
    usable, there are at least two clients, and a round's client work reaches
    LANE_WORK, ``start`` cuts the clients, in id order, into K = min(usable
    CPUs, clients) runs of about equal rows and groups each run by
    ``group_key``.  The calling process runs the first; K - 1 lane processes
    run the rest, each round on one BLAS thread.  ``start`` forks each lane
    for its run, and ``finish`` or ``close`` kills and reaps it.  On Linux a
    lane dies with its parent, even a SIGKILLed one.

    * A lane's workers are the clients as they were at ``start``, after
      JOIN_ACK, inherited through the fork.  Each round the lane gets the
      decoded w once and returns every worker's payloads, train loss and the
      state its kind carries (``carried``), which is written back into
      ``workers``, as a TCP client keeps its own state and sends its payloads and loss.

    Updates are bitwise those of a sequential run.  A failing round raises
    the error of the first failing group in the whole run's group order (of
    the lowest client id where a group spans two processes); a lane that
    dies is a TransportError naming its clients.
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
        # A failing part ranks by its group's place in a sequential run, then its first client.
        self._rank = {w.client_id: (g, w.client_id) for g, group in enumerate(self.groups) for w in group}
        self.lanes = 1
        self._own = self.groups  # the groups, or parts of them, that this process runs
        self._lanes: list[tuple[_Lane, list]] = []  # each lane and the parts it runs
        self._pending: list[tuple[Envelope, float]] = []  # each client's update and train loss, in id order

    def start(self, config: RunConfig) -> None:
        _check_client_count(len(self.workers), config)
        self._own, self.lanes = self.groups, 1  # a reused carrier drops the last run's split
        settings = decode_join_ack(encode_join_ack(config))
        for worker in self.workers:
            worker.handle_join_ack(settings)
        k = min(_usable_cpus(), len(self.workers))
        if k > 1 and _may_fork():
            rows = sum(worker.local.size for worker in self.workers)
            if rows * config.algo.local_steps * param_count(config.model) >= LANE_WORK:
                own, *rest = [_parts(self.groups, chunk) for chunk in _chunks(self.workers, k)]
                self._own, self.lanes = own, k
                try:
                    for parts in rest:
                        self._lanes.append((_Lane(parts), parts))
                except OSError as exc:  # no fork or pipe to be had; ``close`` kills the lanes started
                    raise TransportError(f"could not start a lane process: {exc}") from exc

    def _answers(self, lane: _Lane, parts: list[list]) -> list:
        """A lane's per-part (payloads, train loss) or exception for the round it was sent.

        Writes each worker's carried state back into its attributes.
        """
        try:
            reply = lane.conn.recv()
        except (EOFError, OSError) as exc:
            lane.stop()
            ids = [worker.client_id for part in parts for worker in part]
            return [TransportError(f"the lane process running clients {ids} ended: {exc!r}")]
        answers = []
        for part, answer in zip(parts, reply):
            if not isinstance(answer, Exception):
                for worker, (_, _, state) in zip(part, answer):
                    vars(worker).update(state)
                answer = [(arrays, loss) for arrays, loss, _ in answer]
            answers.append(answer)
        return answers

    def broadcast_model(self, round_num: int, w: np.ndarray) -> int:
        """Run every client's round; returns the GLOBAL_MODEL bytes a framed carrier would send."""
        payload = encode_vector(w)
        sent = decode_vectors(payload)[0]
        for lane, _ in self._lanes:
            try:
                lane.conn.send((round_num, sent))
            except OSError:  # its recv reports it
                pass
        done = list(zip(self._own, _run_parts(self._own, round_num, sent)))
        for lane, parts in self._lanes:
            done += zip(parts, self._answers(lane, parts))
        failed = [(self._rank[part[0].client_id], exc) for part, exc in done if isinstance(exc, Exception)]
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        pending = [
            (Envelope(LOCAL_UPDATE, round_num, worker.client_id, encode_update_payload(arrays)), loss)
            for part, updates in done
            for worker, (arrays, loss) in zip(part, updates)
        ]
        self._pending = sorted(pending, key=lambda item: item[0].client_id)
        return (HEADER_SIZE + len(payload)) * len(self.workers)

    def gather_updates(self, round_num: int, timeout_s: float = 60.0) -> list[Envelope]:
        return [env for env, _ in self._pending]

    def gather_losses(self, round_num: int, timeout_s: float = 60.0) -> list[float]:
        """Each client's train loss at the z it sent this round, in id order."""
        losses, self._pending = [loss for _, loss in self._pending], []
        return losses

    def close(self) -> None:
        """Kill and reap this run's lanes."""
        lanes, self._lanes = self._lanes, []
        for lane, _ in lanes:
            lane.stop()

    finish = close


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
    given to ``gather_updates``, and its train losses by the one given to
    ``gather_losses``.
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
        """Read one LOCAL_UPDATE from each client, in id order, before one round deadline."""
        return self._gather(round_num, timeout_s, LOCAL_UPDATE, self._update_size)

    def gather_losses(self, round_num: int, timeout_s: float = 60.0) -> list[float]:
        """Read one TRAIN_LOSS from each client, in id order, before one round deadline; returns the losses."""
        losses = []
        for env in self._gather(round_num, timeout_s, TRAIN_LOSS, LOSS_SIZE):
            count, loss = struct.unpack("<Qd", env.payload)
            if count != 1:
                raise ProtocolError(f"client {env.client_id} sent a TRAIN_LOSS of {count} values, not 1")
            losses.append(loss)
        return losses

    def _gather(self, round_num: int, timeout_s: float, kind: int, size: int) -> list[Envelope]:
        """One ``kind`` frame of ``size`` payload bytes from each client, in id order, before one deadline."""
        deadline = time.monotonic() + timeout_s
        envs = []
        for cid in range(self.num_clients):
            conn = self._conns[cid]
            try:
                header = check_update(_recv_exact(conn, HEADER_SIZE, deadline), cid, round_num, size, kind)
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

    def send_update(self, round_num: int, arrays: list[np.ndarray], loss: float | None = None) -> None:
        """LOCAL_UPDATE, then TRAIN_LOSS when ``loss`` is given, in one write."""
        envs = [Envelope(LOCAL_UPDATE, round_num, self.client_id, encode_update_payload(arrays))]
        if loss is not None:
            envs.append(Envelope(TRAIN_LOSS, round_num, self.client_id, encode_vector(np.array([loss]))))
        self._send(*envs)

    def send_error(self, round_num: int, message: str) -> None:
        self._send(Envelope(ERROR, round_num, self.client_id, message.encode()[:MAX_ERROR_PAYLOAD]))

    def _send(self, *envs: Envelope) -> None:
        try:
            self._sock.sendall(b"".join(encode_envelope(env) for env in envs))
        except OSError as exc:
            raise TransportError(f"client {self.client_id} could not send {KIND_NAMES[envs[0].kind]}: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
