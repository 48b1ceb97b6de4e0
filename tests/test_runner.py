import dataclasses
import json
import math
import socket
import threading

import numpy as np
import pytest

from flcore import runner
from flcore.algorithms import iiadmm_global
from flcore.config import build_data, parse_config
from flcore.data import PARTITION_SCHEMES, Dataset, deal, train_test_split
from flcore.errors import ConfigError, FlcoreError, NumericError, ProtocolError, TransportError
from flcore.models import ModelSpec, param_count
from flcore.runner import epsilon_sweep, final_accuracy, metrics_line, train, validate, write_sweep_csv
from flcore.transport import InProcessCarrier, TcpServerCarrier, decode_vectors, encode_update_payload
from flcore.worker import build_workers, run_client


def blob_config(**overrides):
    base = {
        "model": {"kind": "softmax", "input_dim": 2, "output_dim": 3},
        "algo": {
            "kind": "iiadmm",
            "rho": 2.0,
            "zeta": 0.5,
            "local_steps": 3,
            "batch_size": 16,
            "rounds": 5,
        },
        "privacy": {"enabled": False},
        "data": {"source": "synthetic-blobs", "n": 120, "input_dim": 2, "classes": 3, "noise": 0.4},
        "run": {"clients": 4, "seed": 11},
    }
    for section, values in overrides.items():
        base.setdefault(section, {}).update(values)
    return parse_config(base)


def run_to_lines(config, tmp_path, name, carrier=None):
    path = tmp_path / name
    train(config, carrier=carrier, metrics_path=str(path))
    return path.read_bytes()


class TestTrainBasics:
    def test_zero_rounds(self):
        cfg = blob_config(algo={"rounds": 0})
        record = train(cfg)
        assert record.metrics == []
        assert record.final_w.shape == (param_count(cfg.model),)

    def test_metrics_lines_parse_and_count(self, tmp_path):
        cfg = blob_config()
        path = tmp_path / "m.jsonl"
        record = train(cfg, metrics_path=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 5 == len(record.metrics)
        for i, line in enumerate(lines, start=1):
            obj = json.loads(line)
            assert obj["round"] == i
            assert set(obj) == {
                "round",
                "train_loss",
                "test_acc",
                "consensus_residual",
                "bytes_up",
                "bytes_down",
                "payload_bytes_up",
                "t_local_ms",
                "t_comm_ms",
                "t_global_ms",
            }
            assert obj["bytes_up"] > obj["payload_bytes_up"] > 0

    def test_deterministic_bitwise(self, tmp_path):
        cfg = blob_config(privacy={"enabled": True, "epsilon_bar": 5, "clip": 1.0})
        a = run_to_lines(cfg, tmp_path, "a.jsonl")
        b = run_to_lines(cfg, tmp_path, "b.jsonl")
        assert a == b

    def test_privacy_flag_off_consumes_no_randomness(self, tmp_path):
        # enabled=false must equal enabled=true with infinite budget and a
        # clip bound too large to bind: the noise stream is never drawn.
        off = blob_config(privacy={"enabled": False})
        vacuous = blob_config(privacy={"enabled": True, "epsilon_bar": "inf", "clip": 1e18})
        assert run_to_lines(off, tmp_path, "off.jsonl") == run_to_lines(vacuous, tmp_path, "on.jsonl")

    def test_partial_metrics_kept_on_failure(self, tmp_path):
        cfg = blob_config(algo={"rounds": 4})
        path = tmp_path / "partial.jsonl"
        calls = []

        def bomb(t, w, duals, carrier):
            calls.append(t)
            if t == 2:
                raise ConfigError("synthetic abort")

        with pytest.raises(ConfigError):
            train(cfg, metrics_path=str(path), on_round_end=bomb)
        assert len(path.read_text().splitlines()) == 2

    @pytest.mark.parametrize("failure", ["metrics-dir-missing", "input-dim-mismatch"])
    def test_passed_carrier_closed_when_set_up_fails(self, tmp_path, failure):
        # Both fail before the carrier starts; the listener must not outlive train.
        if failure == "metrics-dir-missing":
            cfg, metrics_path, error = blob_config(), str(tmp_path / "missing" / "m.jsonl"), FileNotFoundError
        else:
            cfg, metrics_path, error = blob_config(model={"input_dim": 3}), None, ConfigError
        carrier = TcpServerCarrier("127.0.0.1:0", cfg.clients)
        with pytest.raises(error):
            train(cfg, carrier=carrier, metrics_path=metrics_path)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(carrier.address, timeout=5.0).close()

    def test_eval_every_skips_intermediate_rounds(self):
        cfg = blob_config(algo={"rounds": 5}, run={"eval_every": 2})
        record = train(cfg)
        evaluated = [m.round for m in record.metrics if m.test_acc is not None]
        # Every eval_every rounds, plus always the final round.
        assert evaluated == [2, 4, 5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_round_context_in_errors(self):
        # A vanishing penalty makes the inexact step 1/(rho+zeta) explode on a
        # quadratic loss; the error must name the round and client.
        cfg = parse_config(
            {
                "model": {"kind": "linear-regression", "input_dim": 3},
                "algo": {"kind": "iiadmm", "rho": 1e-12, "zeta": 0.0, "rounds": 5, "local_steps": 10, "batch_size": 64},
                "data": {"source": "synthetic-regression", "n": 80, "input_dim": 3, "noise": 0.1},
                "run": {"clients": 2, "seed": 0},
            }
        )
        with pytest.raises(Exception, match=r"round \d+.*client \d+|client \d+.*round \d+"):
            train(cfg)


class RewritingCarrier(InProcessCarrier):
    """An in-process carrier whose client 1 sends ``rewrite(its vectors)`` as its round-2 update."""

    def __init__(self, workers, rewrite):
        super().__init__(workers)
        self.rewrite = rewrite

    def gather_updates(self, round_num, timeout_s=60.0):
        envs = super().gather_updates(round_num, timeout_s)
        if round_num == 2:
            payload = encode_update_payload(self.rewrite(decode_vectors(envs[1].payload)))
            envs[1] = dataclasses.replace(envs[1], payload=payload)
        return envs


def filled(value):
    """A rewrite that puts ``value`` in every coordinate."""
    return lambda vectors: [np.full_like(v, value) for v in vectors]


class TestMalformedUpdateNamed:
    """The runner's checks are the only ones an in-process update passes."""

    @pytest.mark.parametrize(
        "rewrite,message",
        [
            (lambda vectors: vectors + vectors[:1], "client 1 sent 3 vectors, iceadmm expects 2"),
            (lambda vectors: vectors[:1], "client 1 sent 1 vectors, iceadmm expects 2"),
            (lambda vectors: [v[:-1] for v in vectors], "client 1 sent a vector of the wrong dimension"),
            (lambda vectors: [vectors[0], np.append(vectors[1], 0.0)], "client 1 sent a vector of the wrong dimension"),
        ],
        ids=["extra-vector", "missing-vector", "short", "long-dual"],
    )
    def test_malformed_update_names_client(self, rewrite, message):
        cfg = blob_config(algo={"kind": "iceadmm", "rounds": 3}, run={"clients": 3})
        with pytest.raises(ProtocolError, match=rf"^round 2: {message}$"):
            train(cfg, carrier=RewritingCarrier(build_workers(cfg), rewrite))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteNamed:
    @pytest.mark.parametrize("kind", ["fedavg", "iiadmm"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_update_names_client(self, kind, value):
        cfg = blob_config(algo={"kind": kind, "rounds": 3}, run={"clients": 3})
        with pytest.raises(ProtocolError, match=r"^round 2: client 1 sent a non-finite value$"):
            train(cfg, carrier=RewritingCarrier(build_workers(cfg), filled(value)))

    @pytest.mark.parametrize("kind", ["fedavg", "iiadmm"])
    def test_overflowing_update_names_the_train_loss_pass(self, kind):
        cfg = blob_config(algo={"kind": kind, "rounds": 3}, run={"clients": 3})
        with pytest.raises(NumericError, match=r"^round 2: evaluating client 1's train loss: non-finite"):
            train(cfg, carrier=RewritingCarrier(build_workers(cfg), filled(1e308)))

    def test_overflowing_step_names_the_train_loss_pass(self):
        # Each client's own steps stay finite; the server's loss at the iterate it receives overflows.
        cfg = parse_config(
            {
                "model": {"kind": "linear-regression", "input_dim": 3},
                "algo": {"kind": "fedavg", "eta": 1e150, "rounds": 3, "local_steps": 1, "batch_size": 64},
                "data": {"source": "synthetic-regression", "n": 80, "input_dim": 3, "noise": 0.1},
                "run": {"clients": 2, "seed": 0},
            }
        )
        with pytest.raises(NumericError, match=r"^round 2: evaluating client 0's train loss: non-finite"):
            train(cfg)

    def test_overflowing_test_split_is_named(self, tmp_path):
        # One test row of 1e200s: the model trains on the other rows, and only the test-split loss overflows.
        n, test_fraction, seed = 40, 0.25, 3
        order = Dataset(np.arange(n, dtype=np.float64)[:, None], np.zeros(n))
        _, test = train_test_split(order, test_fraction, seed)
        rows = np.random.default_rng(0).normal(size=(n, 3))
        rows[int(test.inputs[0, 0]), :2] = 1e200
        path = tmp_path / "data.csv"
        np.savetxt(path, rows, delimiter=",")
        cfg = parse_config(
            {
                "model": {"kind": "linear-regression", "input_dim": 2},
                "algo": {"kind": "fedavg", "eta": 0.1, "rounds": 2, "local_steps": 1, "batch_size": 8},
                "data": {"source": "csv", "path": str(path), "input_dim": 2, "test_fraction": test_fraction, "seed": seed},
                "run": {"clients": 2, "seed": 0},
            }
        )
        with pytest.raises(NumericError, match=r"^round 1: evaluating the test split: non-finite"):
            train(cfg)


DIVERGING = {
    "model": {"kind": "linear-regression", "input_dim": 3},
    "algo": {"kind": "fedavg", "eta": 1e200, "rounds": 3, "local_steps": 1, "batch_size": 8},
    "data": {"source": "synthetic-regression", "n": 80, "input_dim": 3, "noise": 0.1},
    "run": {"clients": 2, "seed": 0, "timeout_s": 30.0},
}
# Client 0's second mini-batch gradient overflows inside its own local update.
DIVERGED = "non-finite loss/gradient for linear-regression model at local epoch 1, batch 1"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestClientErrorNamedOnce:
    def test_in_process(self):
        with pytest.raises(NumericError) as info:
            train(parse_config(DIVERGING))
        assert str(info.value) == f"round 1: client 0: {DIVERGED}"

    def test_over_tcp(self):
        cfg = parse_config(DIVERGING)
        carrier = TcpServerCarrier("127.0.0.1:0", cfg.clients, handshake_timeout_s=30.0)
        errors = {}

        def client(cid):
            try:
                run_client(f"127.0.0.1:{carrier.address[1]}", cid, cfg)
            except FlcoreError as exc:
                errors[cid] = str(exc)

        threads = [threading.Thread(target=client, args=(cid,)) for cid in range(cfg.clients)]
        for t in threads:
            t.start()
        with pytest.raises(TransportError) as info:
            train(cfg, carrier=carrier)
        for t in threads:
            t.join(timeout=30.0)
        assert str(info.value) == f"round 1: client 0 reported: {DIVERGED}"
        # Each client's own error still names its round.
        assert errors[0] == f"round 1: client 0: {DIVERGED}"


DEALT_CONFIG = {  # acceptance 10's config, 4 rounds, with 196 train rows for 4 clients
    "model": {"kind": "softmax", "input_dim": 2, "output_dim": 3},
    "algo": {"kind": "iiadmm", "rho": 2.0, "zeta": 0.5, "local_steps": 5, "batch_size": 32, "rounds": 4},
    "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
    "data": {"source": "synthetic-blobs", "n": 245, "input_dim": 2, "classes": 3, "noise": 0.4},
    "run": {"clients": 4, "seed": 29},
}


def dealt_config(scheme):
    return parse_config({**DEALT_CONFIG, "data": {**DEALT_CONFIG["data"], "partition": scheme}})


class TestDealtRows:
    @pytest.mark.parametrize("scheme", ["iid-shuffle", "label-shards"])
    def test_carriers_agree_when_rows_move(self, scheme, tmp_path):
        cfg = dealt_config(scheme)
        groups = InProcessCarrier(build_workers(cfg)).groups
        # 196 rows cut into 8 label shards of 24 or 25 rows give clients of unequal size.
        assert len(groups) == (1 if scheme == "iid-shuffle" else 3)
        inproc = run_to_lines(cfg, tmp_path, "inproc.jsonl")
        carrier = TcpServerCarrier("127.0.0.1:0", cfg.clients, handshake_timeout_s=30.0)
        threads = [
            threading.Thread(target=run_client, args=(f"127.0.0.1:{carrier.address[1]}", cid, cfg))
            for cid in range(cfg.clients)
        ]
        for t in threads:
            t.start()
        tcp = run_to_lines(cfg, tmp_path, "tcp.jsonl", carrier)
        for t in threads:
            t.join(timeout=30.0)
        assert len(inproc.splitlines()) == 4 and inproc == tcp

    @pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
    def test_server_and_workers_share_one_train_buffer(self, scheme, monkeypatch):
        built, dealt, seen = [], [], []

        def recording_build_data(config):
            train_data, test_data, shards = build_data(config)
            reference = [Dataset(train_data.inputs[idx], train_data.labels[idx]) for idx in shards]
            built.append((train_data, reference))
            return train_data, test_data, shards

        def recording_deal(dataset, assignments):
            dealt.append(deal(dataset, assignments))
            return dealt[-1]

        monkeypatch.setattr(runner, "build_data", recording_build_data)
        monkeypatch.setattr(runner, "deal", recording_deal)
        train(dealt_config(scheme), on_round_end=lambda t, w, duals, c: seen.append(c))
        [(whole, reference)], [views] = built, dealt
        for view, worker, ref in zip(views, seen[0].workers, reference, strict=True):
            assert worker.local is view
            for got, buffer, want in ((view.inputs, whole.inputs, ref.inputs), (view.labels, whole.labels, ref.labels)):
                assert np.shares_memory(got, buffer)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestAlgorithms:
    @pytest.mark.parametrize("kind", ["fedavg", "iceadmm", "iiadmm"])
    def test_all_algorithms_learn_blobs(self, kind):
        algo = {"kind": kind, "rounds": 15, "local_steps": 5, "batch_size": 32}
        if kind == "fedavg":
            algo.update(eta=0.5, beta=0.5)
        else:
            algo.update(rho=2.0, zeta=0.5)
        cfg = blob_config(algo=algo, data={"noise": 0.3})
        record = train(cfg)
        assert final_accuracy(record) >= 0.9

    def test_iiadmm_round_invariant(self):
        # Before round t+1's broadcast, w equals the aggregate of round t's
        # gathered updates with the server's own (fresh) duals.
        from flcore.transport import decode_vectors

        cfg = blob_config(algo={"rounds": 6})
        gathered = {}
        carrier = InProcessCarrier(build_workers(cfg))
        original_gather = carrier.gather_updates

        def recording_gather(round_num, timeout_s=60.0):
            envs = original_gather(round_num, timeout_s)
            gathered[round_num] = [decode_vectors(e.payload)[0] for e in envs]
            return envs

        carrier.gather_updates = recording_gather

        seen = {}

        def hook(t, w, duals, c):
            seen[t] = (w.copy(), [d.copy() for d in duals])

        train(cfg, carrier=carrier, on_round_end=hook)
        for t in range(1, 7):
            w_next, duals_next = seen[t]
            expected = iiadmm_global(gathered[t], duals_next, cfg.algo.rho)
            np.testing.assert_array_equal(w_next, expected)

    def test_dual_mirroring_with_noise(self):
        cfg = blob_config(
            algo={"rounds": 8},
            privacy={"enabled": True, "epsilon_bar": 10, "clip": 1.0},
        )
        carrier = InProcessCarrier(build_workers(cfg))

        def hook(t, w, duals, c):
            for p, worker in enumerate(c.workers):
                assert np.array_equal(duals[p], worker.lam), f"round {t} client {p}"

        train(cfg, carrier=carrier, on_round_end=hook)


class TestValidate:
    def test_balanced_zero_params_accuracy_half(self):
        # Ties break to class 0; a set that is half class-0 scores 0.5.
        spec = ModelSpec("softmax", 2, 2)
        inputs = np.random.default_rng(0).normal(size=(40, 2))
        labels = np.array([0, 1] * 20)
        loss, acc = validate(spec, np.zeros(param_count(spec)), Dataset(inputs, labels))
        assert acc == 0.5
        assert loss == pytest.approx(math.log(2.0))

    def test_perfect_separator(self):
        spec = ModelSpec("softmax", 1, 2)
        params = np.array([-5.0, 5.0, 0.0, 0.0])  # class 1 for x > 0
        inputs = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        labels = np.array([0, 1, 0, 1])
        _, acc = validate(spec, params, Dataset(inputs, labels))
        assert acc == 1.0

    def test_empty_test_set_rejected(self):
        spec = ModelSpec("softmax", 2, 2)
        with pytest.raises(ConfigError):
            validate(spec, np.zeros(param_count(spec)), Dataset(np.zeros((0, 2)), np.zeros(0)))

    def test_regression_has_no_accuracy(self):
        spec = ModelSpec("linear-regression", 2)
        ds = Dataset(np.ones((3, 2)), np.ones(3))
        loss, acc = validate(spec, np.zeros(3), ds)
        assert acc is None and loss > 0


class TestEpsilonSweep:
    def test_single_budget_matches_direct_run(self):
        cfg = blob_config(algo={"rounds": 3})
        rows = epsilon_sweep(cfg, [math.inf], seeds=[5])
        direct = train(
            dataclasses.replace(
                cfg,
                seed=5,
                privacy=dataclasses.replace(cfg.privacy, enabled=True, epsilon_bar=math.inf),
            )
        )
        assert rows[0]["mean_accuracy"] == final_accuracy(direct)
        assert rows[0]["std_accuracy"] == 0.0

    def test_duplicates_deduplicated_with_warning(self, caplog):
        cfg = blob_config(algo={"rounds": 1})
        with caplog.at_level("WARNING", logger="flcore.runner"):
            rows = epsilon_sweep(cfg, [5.0, 5.0], seeds=[1])
        assert len(rows) == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_csv_output(self, tmp_path):
        cfg = blob_config(algo={"rounds": 1})
        rows = epsilon_sweep(cfg, [math.inf, 5.0], seeds=[1, 2])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,seed,final_accuracy"
        assert len(lines) == 1 + 4
        assert lines[1].startswith("inf,1,")


class TestMetricsLine:
    def test_timing_keys_written_as_zero(self):
        from flcore.runner import RoundMetrics

        m = RoundMetrics(round=3, train_loss=1.5, test_acc=None)
        obj = json.loads(metrics_line(m))
        assert obj["t_local_ms"] == obj["t_comm_ms"] == obj["t_global_ms"] == 0.0
        assert obj["test_acc"] is None
        assert obj["round"] == 3
