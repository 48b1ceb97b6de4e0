import threading
import time

import numpy as np
import pytest

from flcore.algorithms import noise_spec
from flcore.config import config_to_dict, initial_model, parse_config
from flcore.errors import ConfigError, FlcoreError, NumericError, TransportError
from flcore.models import param_count
from flcore.privacy import laplace_sample, noise_stream
from flcore.rng import stream
from flcore.runner import metrics_line, train
from flcore.transport import InProcessCarrier, TcpServerCarrier, decode_join_ack, encode_join_ack
from flcore.worker import ClientWorker, build_worker, build_workers, run_client


def config(kind="iiadmm", privacy=None, output_dim=3, **algo_overrides):
    algo = {"kind": kind, "rho": 2.0, "zeta": 0.5, "eta": 0.2, "local_steps": 2, "batch_size": 16, "rounds": 4}
    algo.update(algo_overrides)
    return parse_config(
        {
            "model": {"kind": "softmax", "input_dim": 2, "output_dim": output_dim},
            "algo": algo,
            "privacy": privacy or {"enabled": False},
            "data": {"source": "synthetic-blobs", "n": 80, "input_dim": 2, "classes": 3, "noise": 0.3},
            "run": {"clients": 2, "seed": 5},
        }
    )


def session_for(cfg):
    """The shared settings a server running ``cfg`` sends in its JOIN_ACK."""
    return decode_join_ack(encode_join_ack(cfg))


class TestHandshake:
    def test_model_mismatch_aborts(self):
        worker = build_worker(config(), 0)
        with pytest.raises(ConfigError, match=r"model\.output_dim \(server 4, client 3\)"):
            worker.handle_join_ack(session_for(config(output_dim=4)))

    def test_algo_mismatch_aborts(self):
        worker = build_worker(config(), 0)
        with pytest.raises(ConfigError, match=r"algo\.kind \(server 'fedavg', client 'iiadmm'\)"):
            worker.handle_join_ack(session_for(config("fedavg")))

    def test_every_difference_is_named_once(self):
        worker = build_worker(config(), 0)
        server = session_for(config("fedavg", rho=3.0))
        del server["data.noise"]
        server["extra"] = 1
        with pytest.raises(ConfigError) as exc:
            worker.handle_join_ack(server)
        named = str(exc.value).split(": ", 1)[1].split("; ")
        assert named == [
            "algo.kind (server 'fedavg', client 'iiadmm')",
            "algo.rho (server 3.0, client 2.0)",
            "data.noise (server 'absent', client 0.3)",
            "extra (server 1, client 'absent')",
        ]
        assert worker.z is None

    def test_ack_starts_from_the_initial_model(self):
        cfg = config("iceadmm")
        worker = build_worker(cfg, 1)
        worker.handle_join_ack(session_for(cfg))
        assert np.array_equal(worker.z, initial_model(cfg))
        assert np.array_equal(worker.lam, np.zeros(param_count(cfg.model)))

    def test_update_before_ack_rejected(self):
        cfg = config()
        worker = build_worker(cfg, 0)
        with pytest.raises(Exception, match="JOIN_ACK"):
            worker.handle_global(1, np.zeros(param_count(cfg.model)))


def tcp_run(server_cfg, client_cfgs):
    """Serve ``server_cfg`` over localhost to one client thread per config; (metrics lines, errors by side)."""
    carrier = TcpServerCarrier("127.0.0.1:0", server_cfg.clients, handshake_timeout_s=10.0)
    errors = {}

    def client(cid, cfg):
        try:
            run_client(f"127.0.0.1:{carrier.address[1]}", cid, cfg, timeout_s=10.0)
        except FlcoreError as exc:
            errors[cid] = exc

    threads = [threading.Thread(target=client, args=item) for item in enumerate(client_cfgs)]
    for t in threads:
        t.start()
    lines = []
    try:
        lines = [metrics_line(m) for m in train(server_cfg, carrier=carrier).metrics]
    except FlcoreError as exc:
        errors["server"] = exc
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    return lines, errors


def with_changes(cfg, changes):
    obj = config_to_dict(cfg)
    for (name, key), value in changes.items():
        obj[name][key] = value
    return parse_config(obj)


class TestTcpJoin:
    @pytest.mark.parametrize(
        "key,value,named",
        [
            (("algo", "rho"), 3.0, "algo.rho (server 2.0, client 3.0)"),
            (("privacy", "epsilon_bar"), 5.0, "privacy.epsilon_bar (server 10.0, client 5.0)"),
            (("data", "n"), 90, "data.n (server 80, client 90)"),
        ],
    )
    def test_mismatched_client_fails_at_join(self, key, value, named):
        cfg = config(privacy={"enabled": True, "epsilon_bar": 10, "clip": 1.0})
        lines, errors = tcp_run(cfg, [with_changes(cfg, {key: value}), cfg])
        assert lines == []
        assert isinstance(errors[0], ConfigError) and named in str(errors[0])
        assert isinstance(errors["server"], TransportError) and "client 0" in str(errors["server"])

    def test_local_keys_may_differ(self):
        cfg = config(privacy={"enabled": True, "epsilon_bar": 10, "clip": 1.0})
        local = {
            ("run", "out"): "elsewhere.jsonl",
            ("run", "timeout_s"): 9.0,
            ("run", "eval_every"): 3,
            ("data", "path"): "x.csv",
            ("data", "images_path"): "x.idx",
            ("data", "labels_path"): "y.idx",
        }
        lines, errors = tcp_run(cfg, [with_changes(cfg, local), cfg])
        assert errors == {}
        assert lines == [metrics_line(m) for m in train(cfg).metrics]

    def test_client_that_cannot_load_its_data_refuses_at_join(self, tmp_path):
        table = tmp_path / "blobs.csv"
        inputs = stream("test-tcp-join", "csv").normal(size=(40, 2))
        np.savetxt(table, np.column_stack([inputs, np.arange(40) % 3]), delimiter=",")
        cfg = with_changes(config(), {("data", "source"): "csv", ("data", "path"): str(table)})
        missing = tmp_path / "missing.csv"
        begin = time.monotonic()
        lines, errors = tcp_run(cfg, [cfg, with_changes(cfg, {("data", "path"): str(missing)})])
        assert time.monotonic() - begin < 10.0  # the handshake timeout
        assert lines == [] and isinstance(errors[1], ConfigError)
        message = str(errors["server"])
        assert isinstance(errors["server"], TransportError)
        assert "client 1 refused the session at JOIN: data.path: " in message and str(missing) in message


class TestPayloadShapes:
    def test_iiadmm_sends_one_vector(self):
        cfg = config("iiadmm")
        worker = build_worker(cfg, 0)
        worker.handle_join_ack(session_for(cfg))
        arrays = worker.handle_global(1, np.zeros(param_count(cfg.model)))
        assert len(arrays) == 1

    def test_iceadmm_sends_two_vectors(self):
        cfg = config("iceadmm")
        worker = build_worker(cfg, 0)
        worker.handle_join_ack(session_for(cfg))
        arrays = worker.handle_global(1, np.zeros(param_count(cfg.model)))
        assert len(arrays) == 2

    def test_iceadmm_state_persists_across_rounds(self):
        cfg = config("iceadmm")
        worker = build_worker(cfg, 0)
        worker.handle_join_ack(session_for(cfg))
        w = np.zeros(param_count(cfg.model))
        first_z, first_lam = worker.handle_global(1, w)
        assert np.array_equal(worker.z, first_z)
        second_z, _ = worker.handle_global(2, w)
        assert not np.array_equal(first_z, second_z)


class TestPerturbation:
    def test_noise_matches_declared_stream(self):
        # Same clipping on both runs (epsilon=inf adds zero noise), so the
        # trajectories differ by exactly the declared noise stream.
        cfg = config("iiadmm", privacy={"enabled": True, "epsilon_bar": 10, "clip": 1.0})
        quiet = config("iiadmm", privacy={"enabled": True, "epsilon_bar": "inf", "clip": 1.0})
        noisy_worker = build_worker(cfg, 1)
        noisy_worker.handle_join_ack(session_for(cfg))
        clean_worker = build_worker(quiet, 1)
        clean_worker.handle_join_ack(session_for(quiet))

        w = np.zeros(param_count(cfg.model))
        noisy = noisy_worker.handle_global(3, w)[0]
        clean = clean_worker.handle_global(3, w)[0]

        spec = noise_spec(cfg.algo, cfg.privacy, 3)
        assert spec.scale_b == 2.0 * 1.0 / (2.0 + 0.5) / 10.0
        expected_noise = laplace_sample(spec.scale_b, w.shape[0], noise_stream(cfg.seed, 1, 3))
        # (z + noise) - z reintroduces one rounding, so compare to one ulp-ish.
        np.testing.assert_allclose(noisy - clean, expected_noise, rtol=0, atol=1e-15)

    def test_client_dual_uses_perturbed_output(self):
        cfg = config("iiadmm", privacy={"enabled": True, "epsilon_bar": 5, "clip": 1.0})
        worker = build_worker(cfg, 0)
        worker.handle_join_ack(session_for(cfg))
        w = np.zeros(param_count(cfg.model))
        sent = worker.handle_global(1, w)[0]
        rho = cfg.algo.rho_at(1)
        np.testing.assert_array_equal(worker.lam, rho * (w - sent))


class TestBuilders:
    def test_build_workers_covers_all_clients(self):
        workers = build_workers(config())
        assert [w.client_id for w in workers] == [0, 1]
        assert all(w.local.size > 0 for w in workers)

    def test_remote_builder_matches_local_view(self):
        cfg = config()
        local = build_workers(cfg)[1]
        remote = build_worker(cfg, 1)
        assert np.array_equal(local.local.inputs, remote.local.inputs)
        assert np.array_equal(local.local.labels, remote.local.labels)

    def test_out_of_range_id(self):
        with pytest.raises(ConfigError):
            build_worker(config(), 7)


# Every model has an odd parameter count m, so rows of a stacked (P, m)
# buffer after the first are not 64-byte aligned.
GROUP_MODELS = {
    "linear-regression": (
        {"kind": "linear-regression", "input_dim": 6, "output_dim": 1},
        {"source": "synthetic-regression", "input_dim": 6},
    ),
    "softmax": (
        {"kind": "softmax", "input_dim": 4, "output_dim": 3},
        {"source": "synthetic-blobs", "input_dim": 4, "classes": 3, "noise": 0.5},
    ),
    "mlp1": (
        {"kind": "mlp1", "input_dim": 2, "output_dim": 3, "hidden_dim": 4},
        {"source": "synthetic-blobs", "input_dim": 2, "classes": 3, "noise": 0.5},
    ),
}
# equal: 80 training rows over 4 clients, 20 each, so batches of 8 end in a
# ragged batch of 4.  unequal: 82 rows cut into 8 label shards of 10 or 11,
# so clients hold 20 to 22 rows and split into several groups.
GROUP_DATA = {
    "equal": {"n": 100, "partition": "equal"},
    "unequal": {"n": 103, "partition": "label-shards", "shards_per_client": 2},
}


def group_config(model, algo, clip, data):
    model_section, data_section = GROUP_MODELS[model]
    return parse_config(
        {
            "model": model_section,
            "algo": {"kind": algo, "rho": 2.0, "zeta": 0.5, "eta": 0.1, "beta": 0.5, "local_steps": 2,
                     "batch_size": 8, "rounds": 2},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": clip},
            "data": {**data_section, **GROUP_DATA[data]},
            "run": {"clients": 4, "seed": 3},
        }
    )


def joined_workers(cfg):
    workers = build_workers(cfg)
    session = session_for(cfg)
    for worker in workers:
        worker.handle_join_ack(session)
    return workers


def run_groups(workers, round_num, w):
    """Each group's payloads through one handle_group call, keyed by client id."""
    out = {}
    for group in InProcessCarrier(workers).groups:
        models = np.stack([w] * len(group))
        for worker, arrays in zip(group, ClientWorker.handle_group(group, round_num, models)):
            out[worker.client_id] = arrays
    return out


class TestGroups:
    @pytest.mark.parametrize("data", sorted(GROUP_DATA))
    @pytest.mark.parametrize("clip", [1e-3, 1e6])
    @pytest.mark.parametrize("algo", ["fedavg", "iiadmm"])
    @pytest.mark.parametrize("model", sorted(GROUP_MODELS))
    def test_group_equals_alone_bitwise(self, model, algo, clip, data):
        cfg = group_config(model, algo, clip, data)
        grouped, alone = joined_workers(cfg), joined_workers(cfg)
        sizes = [w.local.size for w in grouped]
        groups = InProcessCarrier(grouped).groups
        if data == "equal":
            assert len(groups) == 1 and sizes[0] % cfg.algo.batch_size != 0
        else:
            assert len(groups) > 1 and any(len(g) > 1 for g in groups)
        assert param_count(cfg.model) % 2 == 1
        gen = stream("test-groups", model, algo)
        for round_num in (1, 2, 3):
            w = gen.normal(size=param_count(cfg.model))
            together = run_groups(grouped, round_num, w)
            for worker in alone:
                by_itself = worker.handle_global(round_num, w)
                assert len(together[worker.client_id]) == len(by_itself) == 1
                for a, b in zip(together[worker.client_id], by_itself):
                    assert np.array_equal(a, b), f"round {round_num}, client {worker.client_id}"
            for g, a in zip(grouped, alone):
                assert np.array_equal(g.lam, a.lam), f"round {round_num}, client {g.client_id} dual"

    def test_iceadmm_clients_stay_alone(self):
        cfg = group_config("softmax", "iceadmm", 1.0, "equal")
        assert [len(g) for g in InProcessCarrier(build_workers(cfg)).groups] == [1, 1, 1, 1]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_failure_in_a_group_names_its_client(self):
        cfg = group_config("mlp1", "iiadmm", 1.0, "equal")
        grouped, alone = joined_workers(cfg), joined_workers(cfg)
        for workers in (grouped, alone):
            workers[2].local.inputs[5] *= 1e308
        w = stream("test-groups", "diverge").normal(size=param_count(cfg.model))
        with pytest.raises(NumericError) as in_group:
            run_groups(grouped, 1, w)
        with pytest.raises(NumericError) as by_itself:
            alone[2].handle_global(1, w)
        message = str(in_group.value)
        assert message == str(by_itself.value)
        assert message.startswith("client 2: ") and "local epoch 1, batch" in message
