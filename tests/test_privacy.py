import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcore.algorithms import ALGORITHMS, AlgoConfig, noise_spec
from flcore.errors import ConfigError
from flcore.privacy import (
    NoiseSpec,
    PrivacyConfig,
    clip_gradient,
    dp_budget_report,
    laplace_from_uniform,
    laplace_sample,
    noise_stream,
    perturb_output,
)

# IIADMM with C = 1 and rho = zeta = 1 has sensitivity 2C/(rho + zeta) = 1.
UNIT = AlgoConfig("iiadmm", rho=1.0, zeta=1.0)


def private(epsilon, clip=1.0):
    return PrivacyConfig(enabled=True, epsilon_bar=epsilon, clip=clip)


class TestClip:
    def test_scaled_down_to_norm_c(self):
        g = np.array([1.2, 1.6])  # norm 2
        clipped = clip_gradient(g, 1.0)
        np.testing.assert_allclose(clipped, g / 2.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)

    def test_identity_inside_ball(self):
        g = np.array([0.3, -0.4])
        assert clip_gradient(g, 1.0) is g

    def test_zero_vector(self):
        g = np.zeros(5)
        assert np.array_equal(clip_gradient(g, 1.0), g)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(0.01, 10.0), m=st.integers(1, 64))
    def test_norm_bound_property(self, seed, c, m):
        g = np.random.default_rng(seed).normal(0, 10, m)
        assert np.linalg.norm(clip_gradient(g, c)) <= c * (1 + 1e-12)

    def test_stack_clips_each_row_as_alone(self):
        # Odd m and a row offset: rows after the first are not 64-byte aligned.  The wide
        # m are those of the wide-tcp workload and three times it, where BLAS dots block.
        for m in (37, 100_001, 300_010):
            buf = np.random.default_rng(7).normal(0, 1, 6 * m + 1)
            stack = buf[1:].reshape(6, m)
            stack[2] *= 1e-3 / np.sqrt(m)  # inside the ball
            clipped = clip_gradient(stack, 0.5)
            for row, out in zip(stack, clipped):
                norm = float(np.linalg.norm(row.copy()))
                reference = row if norm <= 0.5 else row * (0.5 / norm)
                assert np.array_equal(out, reference)
                assert np.array_equal(out, clip_gradient(row.copy(), 0.5))
            assert np.array_equal(clipped[2], stack[2])

    def test_stack_inside_ball_returned_as_is(self):
        stack = np.full((3, 4), 0.1)
        assert clip_gradient(stack, 1.0) is stack


class TestSensitivity:
    def test_admm_formula(self):
        for kind in ("iiadmm", "iceadmm"):
            spec = noise_spec(AlgoConfig(kind, rho=1.0, zeta=1.0), private(5.0), 1)
            assert spec == NoiseSpec(delta_bar=1.0, scale_b=0.2)
            assert ALGORITHMS[kind].sensitivity(AlgoConfig(kind, zeta=1.0), 1.0, 1.0) == 1.0

    def test_fedavg_formula(self):
        assert noise_spec(AlgoConfig("fedavg", eta=0.1), private(5.0), 1).delta_bar == pytest.approx(0.2)
        assert ALGORITHMS["fedavg"].sensitivity(AlgoConfig("fedavg", eta=0.1), 1.0, 1.0) == pytest.approx(0.2)

    def test_vanishes_with_clip(self):
        spec = noise_spec(AlgoConfig("iiadmm", rho=1.0, zeta=0.0), private(5.0, clip=1e-9), 1)
        assert spec.delta_bar == pytest.approx(2e-9)

    def test_degenerate_denominator(self):
        # rho + zeta = 0 would divide by zero; the config refuses it before any noise is calibrated.
        with pytest.raises(ConfigError):
            AlgoConfig("iiadmm", rho=0.0, zeta=0.0).validate()

    def test_follows_the_round_penalty(self):
        algo = AlgoConfig("iiadmm", rho=1.0, zeta=0.0, rho_gamma=2.0, rho_max=3.0)
        deltas = [noise_spec(algo, private(5.0), t).delta_bar for t in (1, 2, 3, 4)]
        assert deltas == [2.0, 1.0, 2.0 / 3.0, 2.0 / 3.0]

    def test_privacy_off_gives_zero(self):
        for cfg in (PrivacyConfig(), PrivacyConfig(enabled=False, epsilon_bar=5.0)):
            assert noise_spec(UNIT, cfg, 1) == NoiseSpec(delta_bar=0.0, scale_b=0.0)


class TestLaplaceSampler:
    def test_zero_scale_gives_zero_vector(self):
        out = laplace_sample(0.0, 8, noise_stream(1, 2, 3))
        assert np.array_equal(out, np.zeros(8))

    def test_median_uniform_maps_to_zero(self):
        # u = 0.5 sits exactly at the distribution median; sgn(0) = 0.
        assert laplace_from_uniform(np.array([0.5]), 1.0)[0] == 0.0

    def test_endpoint_stays_finite(self):
        assert np.isfinite(laplace_from_uniform(np.array([0.0]), 1.0)[0])

    def test_moments(self):
        samples = laplace_sample(1.0, 1_000_000, noise_stream(42, 0, 1))
        assert abs(samples.mean()) < 0.01
        assert abs(np.abs(samples).mean() - 1.0) < 0.01

    def test_ks_statistic_against_laplace_cdf(self):
        from scipy import stats

        samples = laplace_sample(1.0, 100_000, noise_stream(7, 0, 1))
        statistic = stats.kstest(samples, "laplace", args=(0.0, 1.0)).statistic
        assert statistic < 0.01

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigError):
            laplace_sample(-1.0, 4, noise_stream(0, 0, 0))


class TestPerturb:
    def test_infinite_epsilon_is_bitwise_identity(self):
        spec = noise_spec(UNIT, private(math.inf), 1)
        assert spec == NoiseSpec(delta_bar=1.0, scale_b=0.0)
        z = np.random.default_rng(0).normal(size=16)
        assert perturb_output(z, spec, noise_stream(0, 0, 1)) is z

    def test_noise_reproduces_seeded_stream(self):
        spec = NoiseSpec(delta_bar=1.0, scale_b=0.5)
        z = np.zeros(32)
        a = perturb_output(z, spec, noise_stream(9, 3, 4))
        b = perturb_output(z, spec, noise_stream(9, 3, 4))
        assert np.array_equal(a, b)
        expected = laplace_sample(0.5, 32, noise_stream(9, 3, 4))
        assert np.array_equal(a, expected)

    def test_halving_epsilon_doubles_scale(self):
        lo = noise_spec(UNIT, private(5.0), 1)
        hi = noise_spec(UNIT, private(10.0), 1)
        assert lo.scale_b == pytest.approx(2.0 * hi.scale_b)

    def test_scale_strictly_decreasing_in_epsilon(self):
        scales = [noise_spec(UNIT, private(e), 1).scale_b for e in (3, 5, 10, 100)]
        assert all(a > b for a, b in zip(scales, scales[1:]))


class TestStreams:
    def test_distinct_keys_distinct_streams(self):
        base = laplace_sample(1.0, 16, noise_stream(1, 0, 1))
        for key in [(1, 0, 2), (1, 1, 1), (2, 0, 1)]:
            other = laplace_sample(1.0, 16, noise_stream(*key))
            assert not np.array_equal(base, other)

    def test_same_key_bitwise(self):
        a = noise_stream(5, 6, 7).random(64)
        b = noise_stream(5, 6, 7).random(64)
        assert np.array_equal(a, b)


class TestBudgetReport:
    def test_basic_report(self):
        cfg = private(10.0)
        report = dp_budget_report(cfg, noise_spec(UNIT, cfg, 1), rounds=50)
        assert report["per_round_epsilon"] == 10.0
        assert report["b"] == pytest.approx(0.1)
        assert report["rounds"] == 50
        assert not report["non_private"]

    def test_non_private_marked(self):
        cfg = private(math.inf)
        report = dp_budget_report(cfg, noise_spec(UNIT, cfg, 1), rounds=10)
        assert report["non_private"]
        assert report["b"] == 0.0

    def test_composed_scale(self):
        # IIADMM with C=1, rho=zeta=1 at epsilon 5: delta=1, b=0.2.
        cfg = private(5.0)
        report = dp_budget_report(cfg, noise_spec(UNIT, cfg, 1), rounds=50)
        assert report["delta_bar"] == 1.0
        assert report["b"] == pytest.approx(0.2)
