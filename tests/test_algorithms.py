import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcore import rng
from flcore.algorithms import (
    ALGO_KINDS,
    ALGORITHMS,
    AlgoConfig,
    dual_update,
    fedavg_global,
    fedavg_local,
    iceadmm_global,
    iceadmm_local,
    iiadmm_global,
    iiadmm_local,
    inexact_step,
    prox_closed_form,
)
from flcore.errors import ConfigError, ShapeError

ONE_BATCH = [object()]


def constant_grad(value):
    vec = np.atleast_1d(np.asarray(value, dtype=float))
    return lambda z, batch: vec.copy()


class TestGlobalUpdates:
    def test_iiadmm_single_client_identity(self):
        w = iiadmm_global([np.array([2.0])], [np.array([0.0])], rho=3.0)
        assert w.tolist() == [2.0]

    def test_iiadmm_zero_duals_is_mean(self):
        w = iiadmm_global([np.array([1.0]), np.array([3.0])], [np.zeros(1), np.zeros(1)], rho=1.0)
        assert w.tolist() == [2.0]

    def test_iiadmm_dual_correction(self):
        w = iiadmm_global([np.array([2.0])], [np.array([1.0])], rho=2.0)
        assert w.tolist() == [1.5]

    def test_iceadmm_matches_formula(self):
        w = iceadmm_global([np.array([4.0]), np.array([0.0])], [np.array([2.0]), np.array([-2.0])], rho=2.0)
        assert w.tolist() == [2.0]

    def test_iceadmm_equals_iiadmm_on_same_duals(self):
        gen = rng.stream("t-glob", 0)
        z = [gen.normal(size=5) for _ in range(3)]
        lam = [gen.normal(size=5) for _ in range(3)]
        assert np.array_equal(iceadmm_global(z, lam, 1.7), iiadmm_global(z, lam, 1.7))

    def test_fedavg_weighted(self):
        w = fedavg_global([np.array([0.0]), np.array([4.0])], [0.25, 0.75])
        assert w.tolist() == [3.0]

    def test_fedavg_equal_weights_is_mean(self):
        w = fedavg_global([np.array([1.0]), np.array([3.0])], [0.5, 0.5])
        assert w.tolist() == [2.0]

    def test_fedavg_single_client(self):
        z = np.array([7.0, -1.0])
        assert np.array_equal(fedavg_global([z], [1.0]), z)

    def test_errors(self):
        with pytest.raises(ConfigError):
            iiadmm_global([np.zeros(2)], [np.zeros(2)], rho=0.0)
        with pytest.raises(ShapeError):
            iiadmm_global([np.zeros(2)], [np.zeros(3)], rho=1.0)
        with pytest.raises(ConfigError):
            fedavg_global([np.zeros(2), np.zeros(2)], [0.5, 0.4])


class TestDualUpdate:
    def test_zero_residual_fixed_point(self):
        lam = np.array([1.0, -2.0])
        w = np.array([3.0, 4.0])
        assert np.array_equal(dual_update(lam, 2.0, w, w), lam)

    def test_hand_value(self):
        out = dual_update(np.array([1.0]), 2.0, np.array([3.0]), np.array([1.0]))
        assert out.tolist() == [5.0]

    def test_bitwise_reproducible(self):
        gen = rng.stream("t-dual", 1)
        lam, w, z = gen.normal(size=4), gen.normal(size=4), gen.normal(size=4)
        assert np.array_equal(dual_update(lam, 1.3, w, z), dual_update(lam, 1.3, w, z))


class TestIiadmmLocal:
    def test_first_step_from_w(self):
        # First step has w - z = 0, so z = w - g/(rho+zeta).
        z = iiadmm_local(
            w=np.array([0.0]),
            lam=np.array([0.0]),
            rho=1.0,
            zeta=1.0,
            local_epochs=1,
            epoch_batches=lambda e: ONE_BATCH,
            grad_fn=constant_grad(1.0),
        )
        assert z.tolist() == [-0.5]

    def test_second_batch_hand_recurrence(self):
        # Continuing with g = 1: z = -0.5 - (1 - 0 - 1*(0 - (-0.5)))/2 = -0.75
        z = iiadmm_local(
            w=np.array([0.0]),
            lam=np.array([0.0]),
            rho=1.0,
            zeta=1.0,
            local_epochs=1,
            epoch_batches=lambda e: [object(), object()],
            grad_fn=constant_grad(1.0),
        )
        assert z.tolist() == [-0.75]

    def test_clip_applied_to_gradient(self):
        z = iiadmm_local(
            w=np.array([0.0]),
            lam=np.array([0.0]),
            rho=1.0,
            zeta=1.0,
            local_epochs=1,
            epoch_batches=lambda e: ONE_BATCH,
            grad_fn=constant_grad(10.0),
            clip_c=1.0,
        )
        assert z.tolist() == [-0.5]


class TestIceadmmLocal:
    def test_single_step_hand_case(self):
        z, lam = iceadmm_local(
            z=np.array([0.0]),
            lam=np.array([0.0]),
            w=np.array([0.0]),
            rho=1.0,
            zeta=1.0,
            local_steps=1,
            full_batch=None,
            grad_fn=constant_grad(1.0),
        )
        assert z.tolist() == [-0.5]
        assert lam.tolist() == [0.5]

    def test_quadratic_three_step_sequence(self):
        # f(z) = 0.5*(z-4)^2, w=0, lam0=0, rho=zeta=1, z0=0.  Hand/exact-rational
        # iteration of the primal-then-dual recurrence gives z = 2.0, 1.0, 0.5
        # (the dual accumulates toward -g, pulling z onto w).
        trace = []
        z = np.array([0.0])
        lam = np.array([0.0])
        for _ in range(3):
            z, lam = iceadmm_local(
                z, lam, np.array([0.0]), 1.0, 1.0, 1, None, lambda v, b: v - 4.0
            )
            trace.append(z[0])
        assert trace == [2.0, 1.0, 0.5]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_closed_form_identity(self, seed):
        gen = rng.stream("t-identity", seed)
        z, g, lam, w = (gen.normal(size=6) for _ in range(4))
        rho = float(gen.uniform(0.05, 10.0))
        zeta = float(gen.uniform(0.0, 10.0))
        a = inexact_step(z, g, lam, rho, zeta, w)
        b = prox_closed_form(z, g, lam, rho, zeta, w)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestFedavgLocal:
    def test_plain_step(self):
        z = fedavg_local(np.array([0.0]), 0.1, 0.0, 1, lambda e: ONE_BATCH, constant_grad(1.0))
        assert z.tolist() == [-0.1]

    def test_momentum_two_steps(self):
        # v1 = 1, v2 = 0.9 + 1 = 1.9: z = -(0.1 + 0.19) = -0.29
        z = fedavg_local(np.array([0.0]), 0.1, 0.9, 1, lambda e: [object(), object()], constant_grad(1.0))
        assert z[0] == pytest.approx(-0.29, abs=1e-15)

    def test_zero_step_size_rejected_by_config_but_identity_in_update(self):
        z = fedavg_local(np.array([1.5]), 0.0, 0.0, 3, lambda e: ONE_BATCH, constant_grad(9.0))
        assert z.tolist() == [1.5]


class TestFedavgReduction:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_admm_variants_reduce_to_fedavg(self, seed):
        # duals pinned to 0, zeta=0, rho=1/eta, one full-batch step.
        gen = rng.stream("t-reduction", seed)
        m = int(gen.integers(1, 12))
        w = gen.normal(size=m)
        g = gen.normal(size=m)
        eta = float(gen.uniform(0.01, 1.0))
        grad_fn = lambda z, batch: g.copy()
        fedavg = fedavg_local(w, eta, 0.0, 1, lambda e: ONE_BATCH, grad_fn)
        iiadmm = iiadmm_local(w, np.zeros(m), 1.0 / eta, 0.0, 1, lambda e: ONE_BATCH, grad_fn)
        iceadmm_z, _ = iceadmm_local(w.copy(), np.zeros(m), w, 1.0 / eta, 0.0, 1, None, grad_fn)
        np.testing.assert_allclose(iiadmm, fedavg, atol=1e-12)
        np.testing.assert_allclose(iceadmm_z, fedavg, atol=1e-12)


@pytest.mark.parametrize("kind", ALGO_KINDS)
def test_client_round_returns_one_stack_per_carried_name(kind):
    entry, (clients, m) = ALGORITHMS[kind], (3, 5)
    gen = rng.stream("t-carries", kind)
    state = [gen.normal(size=(clients, m)) for _ in entry.carries]
    payloads, out = entry.client_round(
        AlgoConfig(kind, local_steps=2), 1.0, gen.normal(size=(clients, m)), state, lambda epoch: ONE_BATCH,
        lambda: ONE_BATCH[0], lambda z, batch: 0.5 * z, None, lambda p, v: v,
    )
    assert [len(arrays) for arrays in payloads] == [entry.vectors_up] * clients
    assert len(out) == len(entry.carries) and all(np.shape(stack) == (clients, m) for stack in out)


class TestAlgoConfig:
    def test_validation(self):
        AlgoConfig("fedavg", eta=0.1).validate()
        AlgoConfig("iiadmm", rho=1.0).validate()
        with pytest.raises(ConfigError):
            AlgoConfig("fedavg", eta=0.0).validate()
        with pytest.raises(ConfigError):
            AlgoConfig("iiadmm", rho=-1.0).validate()
        with pytest.raises(ConfigError):
            AlgoConfig("iiadmm", rho=0.0).validate()
        with pytest.raises(ConfigError):
            AlgoConfig("iceadmm", rho_gamma=2.0, rho_max=0.0).validate()
        with pytest.raises(ConfigError):
            AlgoConfig("sgd").validate()

    def test_rho_schedule_constant_by_default(self):
        cfg = AlgoConfig("iiadmm", rho=2.0)
        assert [cfg.rho_at(t) for t in (1, 5, 50)] == [2.0, 2.0, 2.0]

    def test_rho_schedule_geometric_capped(self):
        cfg = AlgoConfig("iiadmm", rho=1.0, rho_gamma=2.0, rho_max=5.0)
        assert [cfg.rho_at(t) for t in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]
