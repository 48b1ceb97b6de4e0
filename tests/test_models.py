import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcore import rng
from flcore.data import Dataset
from flcore.errors import ConfigError, NumericError, ShapeError
from flcore.models import (
    Batch,
    ModelSpec,
    grad_check,
    init_params,
    loss_and_grad,
    loss_and_outputs,
    param_count,
    predict,
)
from flcore.runner import validate

LINREG = ModelSpec("linear-regression", 3)
SOFTMAX = ModelSpec("softmax", 2, 3)
MLP = ModelSpec("mlp1", 4, 3, 5)


def random_instance(spec: ModelSpec, seed: int, n: int = 6, scale: float = 1.0):
    gen = rng.stream("test-models", spec.kind, seed)
    params = scale * gen.normal(size=param_count(spec))
    x = gen.normal(size=(n, spec.input_dim))
    if spec.is_classifier:
        y = gen.integers(0, spec.output_dim, n)
    else:
        y = gen.normal(size=n)
    return params, Batch(x, y)


class TestParamCount:
    def test_linear_regression(self):
        assert param_count(ModelSpec("linear-regression", 3)) == 4

    def test_softmax(self):
        assert param_count(ModelSpec("softmax", 2, 3)) == 9

    def test_mlp1(self):
        assert param_count(ModelSpec("mlp1", 4, 3, 5)) == 43

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigError):
            param_count(ModelSpec("linear-regression", 0))
        with pytest.raises(ConfigError):
            param_count(ModelSpec("mlp1", 4, 3, 0))
        with pytest.raises(ConfigError):
            param_count(ModelSpec("perceptron", 4))


class TestLossAndGrad:
    def test_linreg_hand_case(self):
        # yhat = 1*1 + 0 = 1, resid = 1: loss 0.5, dw = resid*x, db = resid
        spec = ModelSpec("linear-regression", 1)
        loss, grad = loss_and_grad(spec, np.array([1.0, 0.0]), Batch(np.array([[1.0]]), np.array([0.0])))
        assert loss == 0.5
        assert grad.tolist() == [1.0, 1.0]

    def test_softmax_uniform_at_zero(self):
        spec = ModelSpec("softmax", 3, 2)
        batch = Batch(np.array([[0.3, -1.2, 4.0]]), np.array([1]))
        loss, _ = loss_and_grad(spec, np.zeros(param_count(spec)), batch)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("spec", [LINREG, SOFTMAX, MLP], ids=lambda s: s.kind)
    def test_matches_finite_differences(self, spec):
        for seed in range(5):
            params, batch = random_instance(spec, seed)
            report = grad_check(spec, params, batch, tol=1e-4)
            assert report.passed, f"seed {seed}: max rel err {report.max_rel_err}"

    def test_batch_mean_equals_mean_of_singletons(self):
        for spec in (LINREG, SOFTMAX, MLP):
            params, batch = random_instance(spec, 11, n=2)
            loss2, grad2 = loss_and_grad(spec, params, batch)
            l0, g0 = loss_and_grad(spec, params, Batch(batch.inputs[:1], batch.labels[:1]))
            l1, g1 = loss_and_grad(spec, params, Batch(batch.inputs[1:], batch.labels[1:]))
            assert loss2 == pytest.approx((l0 + l1) / 2, abs=1e-12)
            np.testing.assert_allclose(grad2, (g0 + g1) / 2, atol=1e-12)

    def test_deterministic_bitwise(self):
        params, batch = random_instance(MLP, 3)
        first = loss_and_grad(MLP, params, batch)
        second = loss_and_grad(MLP, params, batch)
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    def test_losses_nonnegative(self):
        for spec in (LINREG, SOFTMAX, MLP):
            for seed in range(10):
                params, batch = random_instance(spec, seed, scale=3.0)
                loss, _ = loss_and_grad(spec, params, batch)
                assert loss >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            loss_and_grad(LINREG, np.zeros(3), Batch(np.zeros((2, 3)), np.zeros(2)))
        with pytest.raises(ShapeError):
            loss_and_grad(SOFTMAX, np.zeros(9), Batch(np.zeros((2, 5)), np.zeros(2, dtype=int)))

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            loss_and_grad(SOFTMAX, np.zeros(9), Batch(np.zeros((1, 2)), np.array([3])))


def reference_loss_and_grad(spec, params, x, y):
    """One client's loss and gradient with plain 2-D products, the formulation
    the stacked kernel must reproduce bitwise."""
    n, d = x.shape
    if spec.kind == "linear-regression":
        resid = x @ params[:d] + params[d] - y
        grad = np.empty_like(params)
        grad[:d] = x.T @ resid / n
        grad[d] = resid.sum() / n
        return 0.5 * float(resid @ resid) / n, grad
    k, h = spec.output_dim, spec.hidden_dim
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0

    def log_softmax(logits):
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    if spec.kind == "softmax":
        wmat, bias = params[: k * d].reshape(k, d), params[k * d :]
        logp = log_softmax(x @ wmat.T + bias)
        delta = (np.exp(logp) - onehot) / n
        grad = np.concatenate([(delta.T @ x).ravel(), delta.sum(axis=0)])
    else:
        w1 = params[: h * d].reshape(h, d)
        b1 = params[h * d : h * (d + 1)]
        w2 = params[h * (d + 1) : h * (d + 1) + k * h].reshape(k, h)
        b2 = params[h * (d + 1) + k * h :]
        pre = x @ w1.T + b1
        hidden = np.maximum(pre, 0.0)
        logp = log_softmax(hidden @ w2.T + b2)
        delta2 = (np.exp(logp) - onehot) / n
        dpre = (delta2 @ w2) * (pre > 0.0)
        grad = np.concatenate(
            [(dpre.T @ x).ravel(), dpre.sum(axis=0), (delta2.T @ hidden).ravel(), delta2.sum(axis=0)]
        )
    return -float(logp[np.arange(n), y].sum()) / n, grad


class TestStacked:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["linear-regression", "softmax", "mlp1"]),
        dims=st.tuples(st.integers(1, 24), st.integers(2, 11), st.integers(1, 40)),
        clients=st.integers(1, 6),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    def test_rows_equal_2d_reference_bitwise(self, kind, dims, clients, n, seed):
        d, k, h = dims
        spec = ModelSpec(kind, d, 1 if kind == "linear-regression" else k, h if kind == "mlp1" else 0)
        gen = np.random.default_rng(seed)
        params = gen.normal(size=(clients, param_count(spec)))
        # Client rows are slices of a longer buffer, as the worker's batches are.
        x = gen.normal(size=(clients, n + 3, d))[:, 1 : n + 1]
        if spec.is_classifier:
            y = gen.integers(0, spec.output_dim, (clients, n))
        else:
            y = gen.normal(size=(clients, n))
        losses, grads = loss_and_grad(spec, params, Batch(x, y))
        for p in range(clients):
            ref_loss, ref_grad = reference_loss_and_grad(spec, params[p].copy(), x[p].copy(), y[p].copy())
            loss, grad = loss_and_grad(spec, params[p].copy(), Batch(x[p].copy(), y[p].copy()))
            assert loss == losses[p] == ref_loss
            assert np.array_equal(grad, ref_grad) and np.array_equal(grads[p], ref_grad)

    def test_client_axis_must_agree(self):
        with pytest.raises(ShapeError):
            loss_and_grad(SOFTMAX, np.zeros((2, 9)), Batch(np.zeros((3, 4, 2)), np.zeros((3, 4), dtype=int)))
        with pytest.raises(ShapeError):
            loss_and_grad(SOFTMAX, np.zeros((2, 9)), Batch(np.zeros((2, 4, 2)), np.zeros((2, 5), dtype=int)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_error_names_first_non_finite_row(self):
        params = np.zeros((3, param_count(LINREG)))
        x = np.ones((3, 2, 3))
        x[2, 0, 0] = x[1, 1, 1] = np.inf
        with pytest.raises(NumericError) as err:
            loss_and_grad(LINREG, params, Batch(x, np.zeros((3, 2))))
        assert err.value.row == 1


class TestForwardOnly:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["linear-regression", "softmax", "mlp1"]),
        dims=st.tuples(st.integers(1, 24), st.integers(2, 11), st.integers(1, 40)),
        clients=st.integers(1, 6),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
    )
    def test_loss_and_accuracy_equal_the_gradient_and_predict_paths(self, kind, dims, clients, n, seed):
        d, k, h = dims
        spec = ModelSpec(kind, d, 1 if kind == "linear-regression" else k, h if kind == "mlp1" else 0)
        gen = np.random.default_rng(seed)
        params = gen.normal(size=(clients, param_count(spec)))
        x = gen.normal(size=(clients, n + 3, d))[:, 1 : n + 1]
        if spec.is_classifier:
            y = gen.integers(0, spec.output_dim, (clients, n))
        else:
            y = gen.normal(size=(clients, n))
        losses, outputs = loss_and_outputs(spec, params, Batch(x, y))
        assert np.array_equal(losses, loss_and_grad(spec, params, Batch(x, y))[0])
        for p in range(clients):
            batch = Batch(x[p], y[p])
            loss, out = loss_and_outputs(spec, params[p], batch)
            assert loss == losses[p] == loss_and_grad(spec, params[p], batch)[0]
            assert np.array_equal(out, outputs[p])
            preds = predict(spec, params[p], x[p])
            val_loss, accuracy = validate(spec, params[p], Dataset(x[p], y[p]))
            assert val_loss == loss
            if spec.is_classifier:
                assert accuracy == float(np.mean(preds == y[p]))
            else:
                assert accuracy is None and np.array_equal(out, preds)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_names_its_row(self):
        x = np.ones((3, 2, 3))
        x[2, 0, 0] = x[1, 1, 1] = np.inf
        with pytest.raises(NumericError) as err:
            loss_and_outputs(LINREG, np.zeros((3, param_count(LINREG))), Batch(x, np.zeros((3, 2))))
        assert err.value.row == 1


class TestPredict:
    def test_softmax_zero_params_tie_breaks_to_class_zero(self):
        spec = ModelSpec("softmax", 2, 4)
        preds = predict(spec, np.zeros(param_count(spec)), np.random.default_rng(0).normal(size=(10, 2)))
        assert np.array_equal(preds, np.zeros(10, dtype=int))

    def test_linreg_value(self):
        assert predict(ModelSpec("linear-regression", 1), np.array([2.0, 1.0]), np.array([[3.0]]))[0] == 7.0

    def test_trained_softmax_separates_blobs(self):
        # Oracle: plain full-batch gradient descent, independent of the
        # federated code paths.
        gen = rng.stream("test-models", "separable", 0)
        n = 120
        y = np.arange(n) % 2
        x = gen.normal(size=(n, 2)) * 0.3 + np.where(y[:, None] == 0, -2.0, 2.0)
        spec = ModelSpec("softmax", 2, 2)
        params = np.zeros(param_count(spec))
        batch = Batch(x, y)
        for _ in range(300):
            _, g = loss_and_grad(spec, params, batch)
            params -= 0.5 * g
        accuracy = np.mean(predict(spec, params, x) == y)
        assert accuracy >= 0.99


class TestGradCheck:
    def test_linreg_exact_to_rounding(self):
        params, batch = random_instance(LINREG, 21)
        assert grad_check(LINREG, params, batch, tol=1e-6).passed

    def test_softmax_random(self):
        params, batch = random_instance(SOFTMAX, 22)
        assert grad_check(SOFTMAX, params, batch, tol=1e-4).passed

    def test_corrupted_gradient_detected(self):
        params, batch = random_instance(SOFTMAX, 23)
        assert grad_check(SOFTMAX, params, batch, tol=1e-4).passed
        _, analytic = loss_and_grad(SOFTMAX, params, batch)
        corrupted = analytic.copy()
        corrupted[2] += 0.1
        report = grad_check(SOFTMAX, params, batch, tol=1e-4, analytic=corrupted)
        assert not report.passed
        assert report.max_rel_err > 1e-4

    def test_invalid_args(self):
        params, batch = random_instance(LINREG, 24)
        with pytest.raises(ConfigError):
            grad_check(LINREG, params, batch, h=0.0)

    @pytest.mark.parametrize("arg", ["h", "tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_step_and_tolerance_must_be_positive_and_finite(self, arg, value):
        params, batch = random_instance(LINREG, 24)
        with pytest.raises(ConfigError, match=rf"0 < h < inf and 0 < tol < inf, got .*{arg}={value!r}"):
            grad_check(LINREG, params, batch, **{arg: value})


class TestInitParams:
    def test_zero_for_linear_models(self):
        assert not init_params(SOFTMAX, rng.stream("i", 0)).any()
        assert not init_params(LINREG, rng.stream("i", 0)).any()

    def test_mlp_breaks_symmetry_deterministically(self):
        a = init_params(MLP, rng.stream("init", 1))
        b = init_params(MLP, rng.stream("init", 1))
        c = init_params(MLP, rng.stream("init", 2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.any()


class TestPacking:
    """The layout the wire format depends on: row-major W, then b, layer by layer."""

    @pytest.mark.parametrize(
        "spec, shapes",
        [
            (LINREG, [(1, 3)]),
            (ModelSpec("linear-regression", 3, 2), [(1, 3)]),  # one output whatever output_dim says
            (SOFTMAX, [(3, 2)]),
            (MLP, [(5, 4), (3, 5)]),
        ],
        ids=["linear-regression", "linear-regression-od2", "softmax", "mlp1"],
    )
    def test_forward_reads_weights_then_biases(self, spec, shapes):
        gen = rng.stream("test-packing", spec.kind)
        layers = [(gen.normal(size=shape), gen.normal(size=shape[0])) for shape in shapes]
        params = np.concatenate([part for w, b in layers for part in (w.ravel(), b)])
        x = gen.normal(size=(7, spec.input_dim))
        out = x
        for i, (w, b) in enumerate(layers):
            out = out @ w.T + b
            if i < len(layers) - 1:
                out = np.maximum(out, 0.0)
        if spec.is_classifier:
            y = gen.integers(0, spec.output_dim, 7)
            logp = out - out.max(axis=1, keepdims=True)
            logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
            want_loss = -logp[np.arange(7), y].mean()
        else:
            y = gen.normal(size=7)
            out = out[:, 0]
            want_loss = 0.5 * np.mean((out - y) ** 2)
        assert params.size == param_count(spec)
        loss, got = loss_and_outputs(spec, params, Batch(x, y))
        np.testing.assert_allclose(got, out, rtol=1e-12, atol=1e-12)
        assert loss == pytest.approx(want_loss, rel=1e-12)

    def test_mlp1_init_is_the_documented_draw(self):
        d, k, h = MLP.input_dim, MLP.output_dim, MLP.hidden_dim
        gen = rng.stream("init", 7)
        w1 = gen.uniform(-1.0, 1.0, h * d) / np.sqrt(d)
        w2 = gen.uniform(-1.0, 1.0, k * h) / np.sqrt(h)
        want = np.concatenate([w1, np.zeros(h), w2, np.zeros(k)])
        assert np.array_equal(init_params(MLP, rng.stream("init", 7)), want)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 8),
    kind=st.sampled_from(["linear-regression", "softmax", "mlp1"]),
)
def test_gradient_property(seed, n, kind):
    spec = {"linear-regression": LINREG, "softmax": SOFTMAX, "mlp1": MLP}[kind]
    params, batch = random_instance(spec, seed, n=n)
    assert grad_check(spec, params, batch, tol=1e-4).passed
