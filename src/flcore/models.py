"""Model zoo with hand-derived batch gradients over flat parameter vectors.

Three kinds are supported:

* ``linear-regression`` -- squared-error loss 0.5*(yhat - y)^2
* ``softmax``           -- multinomial logistic regression, cross-entropy loss
* ``mlp1``              -- one ReLU hidden layer feeding a softmax output

Parameters live in a single float64 vector with a fixed packing order (the
wire format depends on it): row-major weight matrix first, then biases,
layer by layer.  All arithmetic is 64-bit IEEE-754; given identical inputs,
``loss_and_grad`` returns bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

MODEL_KINDS = ("linear-regression", "softmax", "mlp1")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    output_dim: int = 1
    hidden_dim: int = 0

    def validate(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        if self.kind != "linear-regression" and self.output_dim < 2:
            raise ConfigError(f"classifier needs output_dim >= 2, got {self.output_dim}")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ConfigError(f"mlp1 needs hidden_dim >= 1, got {self.hidden_dim}")

    @property
    def is_classifier(self) -> bool:
        return self.kind in ("softmax", "mlp1")


@dataclass(frozen=True)
class Batch:
    """A mini-batch: inputs of shape (n, input_dim), labels of shape (n,).

    A group of clients stacks its batches along a leading client axis:
    inputs (P, n, input_dim), labels (P, n).
    """

    inputs: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        """Samples per client."""
        return self.inputs.shape[-2]


def param_count(spec: ModelSpec) -> int:
    """Number of flat parameters for a spec (weights plus biases)."""
    spec.validate()
    d, k, h = spec.input_dim, spec.output_dim, spec.hidden_dim
    if spec.kind == "linear-regression":
        return d + 1
    if spec.kind == "softmax":
        return k * (d + 1)
    return h * (d + 1) + k * (h + 1)


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial parameter vector.

    Linear models start at zero.  The MLP needs symmetry breaking, so its
    weights start uniform in +-1/sqrt(fan_in) (biases zero); the draw is
    deterministic given the stream.
    """
    m = param_count(spec)
    if spec.kind != "mlp1":
        return np.zeros(m)
    d, k, h = spec.input_dim, spec.output_dim, spec.hidden_dim
    params = np.zeros(m)
    w1 = rng.uniform(-1.0, 1.0, size=h * d) / np.sqrt(d)
    w2 = rng.uniform(-1.0, 1.0, size=k * h) / np.sqrt(h)
    params[: h * d] = w1
    params[h * (d + 1) : h * (d + 1) + k * h] = w2
    return params


def _check_shapes(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> None:
    m = param_count(spec)
    if params.ndim not in (1, 2) or params.shape[-1] != m:
        raise ShapeError(f"expected {m} parameters for {spec.kind}, got shape {params.shape}")
    lead = params.shape[:-1]
    if inputs.ndim != len(lead) + 2 or inputs.shape[:-2] != lead or inputs.shape[-1] != spec.input_dim:
        want = ", ".join([*map(str, lead), "n", str(spec.input_dim)])
        raise ShapeError(f"expected inputs of shape ({want}), got {inputs.shape}")


def _class_labels(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    y = y.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= spec.output_dim):
        raise ShapeError(f"class labels must lie in [0, {spec.output_dim})")
    return y


# The unpackers take one parameter vector (m,) or a stack of them (P, m).


def _unpack_linear(spec: ModelSpec, params: np.ndarray):
    d = spec.input_dim
    return params[..., :d], params[..., d]


def _unpack_softmax(spec: ModelSpec, params: np.ndarray):
    d, k = spec.input_dim, spec.output_dim
    lead = params.shape[:-1]
    return params[..., : k * d].reshape(*lead, k, d), params[..., k * d :]


def _unpack_mlp(spec: ModelSpec, params: np.ndarray):
    d, k, h = spec.input_dim, spec.output_dim, spec.hidden_dim
    lead = params.shape[:-1]
    o = 0
    w1 = params[..., o : o + h * d].reshape(*lead, h, d)
    o += h * d
    b1 = params[..., o : o + h]
    o += h
    w2 = params[..., o : o + k * h].reshape(*lead, k, h)
    o += k * h
    b2 = params[..., o : o + k]
    return w1, b1, w2, b2


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # Max subtraction keeps exp() in range; values are unchanged mathematically.
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a stack."""
    return a.swapaxes(-1, -2)


def _as_stack(spec: ModelSpec, params: np.ndarray, batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a batch against the params and lift an unstacked call to a stack of one."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    _check_shapes(spec, params, x)
    if x.shape[-2] < 1:
        raise ShapeError("batch must contain at least one sample")
    labels = np.asarray(batch.labels)
    if labels.shape != x.shape[:-1]:
        raise ShapeError(f"expected labels of shape {x.shape[:-1]}, got shape {labels.shape}")
    if params.ndim == 1:
        return params[None], x[None], labels[None]
    return params, x, labels


def _outputs(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Forward pass over a stack: regression values (P, n) or class logits (P, n, k).

    Also returns mlp1's ReLU layer (P, n, h), which the backward pass reads;
    it is built in one buffer.
    """
    if spec.kind == "linear-regression":
        w, b = _unpack_linear(spec, params)
        return (x @ w[..., None])[..., 0] + b[:, None], None
    if spec.kind == "softmax":
        wmat, bias = _unpack_softmax(spec, params)
        return x @ _t(wmat) + bias[:, None, :], None
    w1, b1, w2, b2 = _unpack_mlp(spec, params)
    hidden = np.matmul(x, _t(w1))
    hidden += b1[:, None, :]
    np.maximum(hidden, 0.0, out=hidden)
    return hidden @ _t(w2) + b2[:, None, :], hidden


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray, labels: np.ndarray):
    """Losses (P,) of a stack, with the outputs and what the backward pass reads.

    Returns (loss, outputs, hidden, err, onehot): err is the residuals of a
    regression, or the log-probabilities of a classifier, whose one-hot
    label mask is ``onehot``.
    """
    n = x.shape[-2]
    out, hidden = _outputs(spec, params, x)
    if spec.kind == "linear-regression":
        resid = out - labels.astype(np.float64)
        return 0.5 * (resid[:, None, :] @ resid[..., None])[:, 0, 0] / n, out, hidden, resid, None
    y = _class_labels(spec, labels)
    onehot = y[..., None] == np.arange(spec.output_dim)
    logp = _log_softmax(out)
    return -logp[onehot].reshape(y.shape).sum(axis=-1) / n, out, hidden, logp, onehot


def _check_finite(spec: ModelSpec, loss: np.ndarray, grad: np.ndarray | None = None) -> None:
    finite = np.isfinite(loss)
    if grad is not None:
        finite &= np.isfinite(grad).all(axis=-1)
    if not finite.all():
        raise NumericError(f"non-finite loss/gradient for {spec.kind} model", row=int(np.argmin(finite)))


def loss_and_outputs(spec: ModelSpec, params: np.ndarray, batch: Batch) -> tuple[float | np.ndarray, np.ndarray]:
    """Batch-mean loss and the model's outputs, from the forward pass alone.

    The outputs are regression values, or class logits whose argmax is what
    ``predict`` returns.  Shapes follow ``loss_and_grad``, and the loss is
    bitwise the one ``loss_and_grad`` returns.
    """
    stacked = params.ndim == 2
    params, x, labels = _as_stack(spec, params, batch)
    loss, out, *_ = _forward(spec, params, x, labels)
    _check_finite(spec, loss)
    if stacked:
        return loss, out
    return float(loss[0]), out[0]


def loss_and_grad(spec: ModelSpec, params: np.ndarray, batch: Batch) -> tuple[float | np.ndarray, np.ndarray]:
    """Batch-mean loss and its gradient with respect to the flat parameters.

    Params (m,) with inputs (n, d) and labels (n,) give a float loss and a
    gradient (m,).  A stack of clients -- params (P, m), inputs (P, n, d),
    labels (P, n) -- gives losses (P,) and gradients (P, m), and row p is
    bitwise what the unstacked call returns for client p: each product is
    one BLAS call per client on the same operands, and each reduction runs
    over the same axis.  A NumericError carries the first non-finite row.
    The backward pass works in the forward pass's buffers and writes each
    gradient part straight into its slice of the flat gradient.
    """
    stacked = params.ndim == 2
    params, x, labels = _as_stack(spec, params, batch)
    loss, _, hidden, err, onehot = _forward(spec, params, x, labels)
    count, n = x.shape[0], x.shape[-2]
    d, k, h = spec.input_dim, spec.output_dim, spec.hidden_dim
    grad = np.empty_like(params)
    if spec.kind == "linear-regression":
        grad[:, :d] = (_t(x) @ err[..., None])[..., 0] / n
        grad[:, d] = err.sum(axis=-1) / n
    else:
        # exp(log p) - onehot, scaled by 1/n, in the buffer of log p.
        delta = np.exp(err, out=err)
        delta -= onehot
        delta /= n
        if spec.kind == "softmax":
            np.matmul(_t(delta), x, out=grad[:, : k * d].reshape(count, k, d))
            grad[:, k * d :] = delta.sum(axis=-2)
        else:
            _, _, w2, _ = _unpack_mlp(spec, params)
            o = h * (d + 1)
            dpre = delta @ w2
            # hidden > 0 is pre > 0, NaN included: max(NaN, 0) is NaN.
            dpre *= hidden > 0.0
            np.matmul(_t(dpre), x, out=grad[:, : h * d].reshape(count, h, d))
            grad[:, h * d : o] = dpre.sum(axis=-2)
            np.matmul(_t(delta), hidden, out=grad[:, o : o + k * h].reshape(count, k, h))
            grad[:, o + k * h :] = delta.sum(axis=-2)
    _check_finite(spec, loss, grad)
    if stacked:
        return loss, grad
    return float(loss[0]), grad[0]


def predict(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Regression value, or argmax class index with ties to the smallest index."""
    x = np.asarray(inputs, dtype=np.float64)
    _check_shapes(spec, params, x)
    out = _outputs(spec, params[None], x[None])[0][0]
    return out if spec.kind == "linear-regression" else np.argmax(out, axis=-1)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    passed: bool


def grad_check(
    spec: ModelSpec,
    params: np.ndarray,
    batch: Batch,
    h: float = 1e-6,
    tol: float = 1e-4,
    analytic: np.ndarray | None = None,
) -> GradCheckReport:
    """Compare the analytic gradient against central finite differences.

    Uses per-coordinate step h*(1 + |theta_j|) and reports the worst
    relative error, with the denominator floored at 1 so near-zero
    coordinates are judged on absolute error.  ``analytic`` substitutes an
    externally supplied gradient for the model's own (for auditing a
    hand-computed gradient).
    """
    if h <= 0 or tol <= 0:
        raise ConfigError("grad_check requires h > 0 and tol > 0")
    if analytic is None:
        _, analytic = loss_and_grad(spec, params, batch)
    theta = np.array(params, dtype=np.float64)
    fd = np.empty_like(theta)
    for j in range(theta.size):
        step = h * (1.0 + abs(theta[j]))
        saved = theta[j]
        theta[j] = saved + step
        up, _ = loss_and_grad(spec, theta, batch)
        theta[j] = saved - step
        down, _ = loss_and_grad(spec, theta, batch)
        theta[j] = saved
        fd[j] = (up - down) / (2.0 * step)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    max_rel_err = float(np.max(np.abs(analytic - fd) / denom)) if theta.size else 0.0
    return GradCheckReport(max_rel_err=max_rel_err, passed=max_rel_err <= tol)
