import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcore import transport
from flcore.errors import ProtocolError, TransportError
from flcore.models import ModelSpec
from flcore.transport import (
    DONE,
    ERROR,
    GLOBAL_MODEL,
    HEADER_SIZE,
    JOIN,
    JOIN_ACK,
    LOCAL_UPDATE,
    Envelope,
    SessionConfig,
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
        session = SessionConfig(ModelSpec("mlp1", 4, 3, 5), "iiadmm", np.arange(43, dtype=float), 50)
        back = decode_join_ack(encode_join_ack(session))
        assert back.model == session.model
        assert back.algo_kind == "iiadmm"
        assert back.rounds == 50
        assert np.array_equal(back.initial_w, session.initial_w)


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
    def make(self, num_clients=2, round_num=3):
        return transport._UpdateCollector(num_clients, round_num, transport.RoundBytes())

    def test_stale_round_dropped_silently(self):
        collector = self.make()
        collector.offer(Envelope(LOCAL_UPDATE, 2, 0, b""))
        assert not collector.collected
        assert collector.counters.bytes_up == 0

    def test_future_round_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="round 4"):
            self.make().offer(Envelope(LOCAL_UPDATE, 4, 0, b""))

    def test_duplicate_update_is_protocol_error(self):
        collector = self.make()
        collector.offer(Envelope(LOCAL_UPDATE, 3, 1, b""))
        with pytest.raises(ProtocolError, match="duplicate"):
            collector.offer(Envelope(LOCAL_UPDATE, 3, 1, b""))

    def test_unknown_client_rejected(self):
        with pytest.raises(ProtocolError, match="unknown client"):
            self.make().offer(Envelope(LOCAL_UPDATE, 3, 9, b""))

    def test_client_error_envelope_surfaces(self):
        with pytest.raises(TransportError, match="boom"):
            self.make().offer(Envelope(ERROR, 3, 0, b"boom"))


class EchoWorker:
    """Minimal in-process client: replies with the received model."""

    def __init__(self, client_id, vectors=1):
        self.client_id = client_id
        self.vectors = vectors
        self.seen_payloads = []

    def handle_join_ack(self, session):
        self.session = session

    def handle_global(self, round_num, w):
        self.seen_payloads.append(w.tobytes())
        return [w.copy() for _ in range(self.vectors)]

    def handle_done(self, env):
        self.done = True


def make_session(m=2, rounds=3, kind="iiadmm"):
    return SessionConfig(ModelSpec("linear-regression", m - 1), kind, np.zeros(m), rounds)


class TestInProcessCarrier:
    def test_byte_accounting(self):
        carrier = transport.InProcessCarrier([EchoWorker(i) for i in range(3)])
        carrier.start(make_session(m=2))
        carrier.reset_round_bytes()
        carrier.broadcast_model(1, np.array([1.0, 2.0]))
        envs = carrier.gather_updates(1)
        assert carrier.round_bytes.bytes_down == 3 * (22 + 8 + 16)
        assert carrier.round_bytes.bytes_up == 3 * (22 + 8 + 16)
        assert carrier.round_bytes.payload_bytes_up == 3 * 24
        assert [e.client_id for e in envs] == [0, 1, 2]

    def test_parallel_matches_serial(self):
        w = np.array([0.25, -8.5])
        serial = transport.InProcessCarrier([EchoWorker(i) for i in range(4)])
        serial.start(make_session())
        serial.broadcast_model(1, w)
        a = serial.gather_updates(1)
        parallel = transport.InProcessCarrier([EchoWorker(i) for i in range(4)], parallel=True)
        parallel.start(make_session())
        parallel.broadcast_model(1, w)
        b = parallel.gather_updates(1)
        assert [e.payload for e in a] == [e.payload for e in b]

    def test_gather_is_sorted_and_complete(self):
        carrier = transport.InProcessCarrier([EchoWorker(i) for i in reversed(range(5))])
        carrier.start(make_session())
        carrier.broadcast_model(1, np.zeros(2))
        envs = carrier.gather_updates(1)
        assert [e.client_id for e in envs] == [0, 1, 2, 3, 4]


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
        carrier.start(make_session(m=2, rounds=2))
        for round_num in (1, 2):
            carrier.reset_round_bytes()
            carrier.broadcast_model(round_num, np.array([3.5, -1.0]))
            envs = carrier.gather_updates(round_num, timeout_s=10.0)
            assert [e.client_id for e in envs] == [0, 1]
            assert carrier.round_bytes.bytes_up == 2 * (22 + 24)
        carrier.finish()
        for t in threads:
            t.join(timeout=10.0)
        assert not errors

    def test_duplicate_client_id_rejected(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=2, handshake_timeout_s=10.0)
        port = carrier.address[1]
        server = threading.Thread(target=lambda: (carrier.start(make_session(rounds=0)), carrier.finish()))
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
        assert ack_result and ack_result[0].rounds == 0
        first.close()
        second.close()

    def test_out_of_range_id_rejected(self):
        carrier = TcpServerCarrier("127.0.0.1:0", num_clients=1, handshake_timeout_s=10.0)
        port = carrier.address[1]
        server = threading.Thread(target=lambda: (carrier.start(make_session(rounds=0)), carrier.finish()))
        server.start()

        with pytest.raises(TransportError, match="out of range"):
            TcpClientChannel(f"127.0.0.1:{port}", 5, timeout_s=10.0).join()

        good = TcpClientChannel(f"127.0.0.1:{port}", 0, timeout_s=10.0)
        good.join()
        server.join(timeout=10.0)
        good.close()

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
        carrier.start(make_session(rounds=1))
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
            channel.recv()  # blocks until server closes

        t = threading.Thread(target=silent_client, daemon=True)
        t.start()
        carrier.start(make_session(rounds=1))
        carrier.broadcast_model(1, np.zeros(2))
        with pytest.raises(TransportError, match=r"missing clients \[0\]"):
            carrier.gather_updates(1, timeout_s=0.3)
        carrier.close()

    def test_identical_bytes_across_carriers(self):
        # The same model broadcast must reach clients as identical payload
        # bytes on both carriers.
        w = np.array([0.125, -3.75])
        inproc_worker = EchoWorker(0)
        inproc = transport.InProcessCarrier([inproc_worker])
        inproc.start(make_session(rounds=1))
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
        carrier.start(make_session(rounds=1))
        carrier.broadcast_model(1, w)
        carrier.gather_updates(1, timeout_s=10.0)
        carrier.finish()
        t.join(timeout=10.0)
        assert seen == inproc_worker.seen_payloads
