import dataclasses
import json
import math
import socket

import numpy as np
import pytest

from flcore.algorithms import iiadmm_global
from flcore.config import parse_config
from flcore.data import Dataset
from flcore.errors import ConfigError
from flcore.models import ModelSpec, param_count
from flcore.runner import epsilon_sweep, final_accuracy, metrics_line, train, validate, write_sweep_csv
from flcore.transport import InProcessCarrier, TcpServerCarrier
from flcore.worker import build_workers


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
        evaluated = [m.round_num for m in record.metrics if m.test_accuracy is not None]
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
        from flcore.transport import RoundMetrics

        m = RoundMetrics(round_num=3, train_loss=1.5, test_accuracy=None)
        obj = json.loads(metrics_line(m))
        assert obj["t_local_ms"] == obj["t_comm_ms"] == obj["t_global_ms"] == 0.0
        assert obj["test_acc"] is None
        assert obj["round"] == 3
