"""Model zoo: affine layers with a ReLU between them, plus a loss head.

One forward and one backward pass serve all three kinds; they differ only in
their layer shapes, (fan_out, fan_in) per layer, and their loss head:

* ``linear-regression`` -- one layer (1, d); squared-error loss 0.5*(yhat - y)^2
* ``softmax``           -- one layer (k, d); cross-entropy loss
* ``mlp1``              -- layers (h, d) and (k, h); cross-entropy loss

Parameters live in a single float64 vector with a fixed packing order (the
wire format depends on it): row-major weight matrix first, then biases,
layer by layer.  All arithmetic is 64-bit IEEE-754; given identical inputs,
``loss_and_grad`` returns bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

MODEL_KINDS = ("linear-regression", "softmax", "mlp1")


@dataclass(frozen=True)
class ModelSpec:
    kind: str = "softmax"
    input_dim: int = 2
    output_dim: int = 2  # linear-regression has one output whatever this says
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


@cache
def _layer_shapes(spec: ModelSpec) -> tuple[tuple[int, int], ...]:
    """(fan_out, fan_in) of each affine layer, input to output; a ReLU sits between layers.

    Linear regression has one output whatever ``output_dim`` says.
    """
    spec.validate()
    d, k, h = spec.input_dim, spec.output_dim, spec.hidden_dim
    return {"linear-regression": ((1, d),), "softmax": ((k, d),), "mlp1": ((h, d), (k, h))}[spec.kind]


def _layers(spec: ModelSpec, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views of each layer into a flat vector (m,) or a stack (P, m).

    W is (..., fan_out, fan_in), b is (..., fan_out); the packing is row-major
    W then b, layer by layer.  Parameters and gradients share it.
    """
    lead, o, layers = vec.shape[:-1], 0, []
    for fan_out, fan_in in _layer_shapes(spec):
        end = o + fan_out * fan_in
        layers.append((vec[..., o:end].reshape(*lead, fan_out, fan_in), vec[..., end : end + fan_out]))
        o = end + fan_out
    return layers


def param_count(spec: ModelSpec) -> int:
    """Number of flat parameters for a spec (weights plus biases)."""
    return sum(fan_out * (fan_in + 1) for fan_out, fan_in in _layer_shapes(spec))


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Initial parameter vector.

    Single-layer models start at zero.  Hidden units need symmetry breaking,
    so a multi-layer model's weights start uniform in +-1/sqrt(fan_in)
    (biases zero), drawn layer by layer from the stream.
    """
    params = np.zeros(param_count(spec))
    layers = _layers(spec, params)
    if len(layers) > 1:
        for w, _ in layers:
            w[...] = (rng.uniform(-1.0, 1.0, size=w.size) / np.sqrt(w.shape[-1])).reshape(w.shape)
    return params


def _check_shapes(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> None:
    m = param_count(spec)
    if params.ndim not in (1, 2) or params.shape[-1] != m:
        raise ShapeError(f"expected {m} parameters for {spec.kind}, got shape {params.shape}")
    lead = params.shape[:-1]
    if inputs.ndim != len(lead) + 2 or inputs.shape[:-2] != lead or inputs.shape[-1] != spec.input_dim:
        want = ", ".join([*map(str, lead), "n", str(spec.input_dim)])
        raise ShapeError(f"expected inputs of shape ({want}), got {inputs.shape}")


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


def _outputs(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> list[np.ndarray]:
    """Forward pass over a stack: the input of every layer, then the output (P, n, fan_out).

    Each layer's pre-activation is built in one buffer, and a hidden layer
    is rectified in it; the backward pass reads these buffers.
    """
    acts = [x]
    for i, (w, b) in enumerate(layers):
        a = np.matmul(acts[-1], _t(w))
        a += b[:, None, :]
        if i < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def _forward(spec: ModelSpec, layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, labels: np.ndarray):
    """Losses (P,) of a stack, with the outputs and what the backward pass reads.

    This is the loss head.  Returns (loss, outputs, acts, err, onehot): the
    outputs are regression values (P, n) or class logits (P, n, k); err is
    the residuals (P, n, 1) of the squared error, or the log-probabilities
    of the cross-entropy, whose one-hot label mask is ``onehot``.
    """
    n = x.shape[-2]
    acts = _outputs(layers, x)
    if not spec.is_classifier:
        values = acts[-1][..., 0]
        resid = values - labels.astype(np.float64)
        return 0.5 * (resid[:, None, :] @ resid[..., None])[:, 0, 0] / n, values, acts, resid[..., None], None
    y = labels.astype(np.int64)
    if y.size and (y.min() < 0 or y.max() >= spec.output_dim):
        raise ShapeError(f"class labels must lie in [0, {spec.output_dim})")
    onehot = y[..., None] == np.arange(spec.output_dim)
    logp = _log_softmax(acts[-1])
    return -logp[onehot].reshape(y.shape).sum(axis=-1) / n, acts[-1], acts, logp, onehot


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
    loss, out, *_ = _forward(spec, _layers(spec, params), x, labels)
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
    layers = _layers(spec, params)
    loss, _, acts, delta, onehot = _forward(spec, layers, x, labels)
    n = x.shape[-2]
    if onehot is not None:
        # Cross-entropy: exp(log p) - onehot, scaled by 1/n, in the buffer of log p.
        np.exp(delta, out=delta)
        delta -= onehot
        delta /= n
    grad = np.empty(params.shape)
    for i, (gw, gb) in reversed(list(enumerate(_layers(spec, grad)))):
        np.matmul(_t(delta), acts[i], out=gw)
        gb[...] = delta.sum(axis=-2)
        if i:
            delta = delta @ layers[i][0]
            # acts[i] > 0 is pre > 0, NaN included: max(NaN, 0) is NaN.
            delta *= acts[i] > 0.0
    if onehot is None:
        grad /= n  # squared error: dividing the residuals by n instead would change the last bits
    _check_finite(spec, loss, grad)
    if stacked:
        return loss, grad
    return float(loss[0]), grad[0]


def predict(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Regression value, or argmax class index with ties to the smallest index."""
    x = np.asarray(inputs, dtype=np.float64)
    _check_shapes(spec, params, x)
    out = _outputs(_layers(spec, params[None]), x[None])[-1][0]
    return np.argmax(out, axis=-1) if spec.is_classifier else out[:, 0]


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
    if not (0 < h < np.inf and 0 < tol < np.inf):  # NaN fails both comparisons
        raise ConfigError(f"grad_check requires 0 < h < inf and 0 < tol < inf, got h={h!r}, tol={tol!r}")
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
