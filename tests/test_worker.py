import dataclasses

import numpy as np
import pytest

from flcore.config import parse_config
from flcore.errors import ConfigError, NumericError
from flcore.models import ModelSpec, init_params, param_count
from flcore.privacy import laplace_sample, noise_stream, sensitivity
from flcore.rng import stream
from flcore.transport import InProcessCarrier, SessionConfig
from flcore.worker import ClientWorker, build_worker, build_workers


def config(kind="iiadmm", privacy=None, **algo_overrides):
    algo = {"kind": kind, "rho": 2.0, "zeta": 0.5, "eta": 0.2, "local_steps": 2, "batch_size": 16, "rounds": 4}
    algo.update(algo_overrides)
    return parse_config(
        {
            "model": {"kind": "softmax", "input_dim": 2, "output_dim": 3},
            "algo": algo,
            "privacy": privacy or {"enabled": False},
            "data": {"source": "synthetic-blobs", "n": 80, "input_dim": 2, "classes": 3, "noise": 0.3},
            "run": {"clients": 2, "seed": 5},
        }
    )


def session_for(cfg):
    return SessionConfig(cfg.model, cfg.algo.kind, np.zeros(param_count(cfg.model)), cfg.algo.rounds)


class TestHandshake:
    def test_model_mismatch_aborts(self):
        cfg = config()
        worker = build_worker(cfg, 0)
        wrong = SessionConfig(ModelSpec("softmax", 2, 4), "iiadmm", np.zeros(12), 4)
        with pytest.raises(ConfigError, match="model"):
            worker.handle_join_ack(wrong)

    def test_algo_mismatch_aborts(self):
        cfg = config()
        worker = build_worker(cfg, 0)
        wrong = dataclasses.replace(session_for(cfg), algo_kind="fedavg")
        with pytest.raises(ConfigError, match="fedavg"):
            worker.handle_join_ack(wrong)

    def test_update_before_ack_rejected(self):
        cfg = config()
        worker = build_worker(cfg, 0)
        with pytest.raises(Exception, match="JOIN_ACK"):
            worker.handle_global(1, np.zeros(param_count(cfg.model)))


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

        delta = sensitivity("iiadmm", 1.0, rho=2.0, zeta=0.5)
        expected_noise = laplace_sample(delta / 10.0, w.shape[0], noise_stream(cfg.seed, 1, 3))
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
    session = SessionConfig(cfg.model, cfg.algo.kind, init_params(cfg.model, stream("init", cfg.seed)), cfg.algo.rounds)
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
        for round_num in (1, 2):
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
        assert message.startswith("client 2, round 1: ") and "local epoch 1, batch" in message


class TestShuffleBuffer:
    @pytest.mark.parametrize("alone", [False, True], ids=["group", "alone"])
    @pytest.mark.parametrize("algo", ["fedavg", "iiadmm"])
    def test_reused_buffer_equals_fresh_worker_each_round(self, algo, alone):
        # The four clients form one group in-process; alone, each is a group of one, as over TCP.
        cfg = group_config("mlp1", algo, 1.0, "equal")
        kept = joined_workers(cfg)
        gen = stream("test-shuffle-buffer", algo)
        buffers = []
        for round_num in (1, 2, 3):
            w = gen.normal(size=param_count(cfg.model))
            fresh = joined_workers(cfg)
            for f, k in zip(fresh, kept):
                f.lam = k.lam.copy()
            if alone:
                reused = {k.client_id: k.handle_global(round_num, w) for k in kept}
                new = {f.client_id: f.handle_global(round_num, w) for f in fresh}
            else:
                reused, new = run_groups(kept, round_num, w), run_groups(fresh, round_num, w)
            for cid in range(cfg.clients):
                assert all(np.array_equal(a, b) for a, b in zip(reused[cid], new[cid])), f"round {round_num}, client {cid}"
                assert np.array_equal(kept[cid].lam, fresh[cid].lam)
            buffers.append(kept[0].shuffle)
        assert all(b is buffers[0] for b in buffers)
