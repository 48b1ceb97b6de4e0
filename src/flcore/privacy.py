"""Per-round differential privacy: clipping and Laplace noise.

The mechanism is output perturbation: the client adds zero-mean Laplace noise
of scale b = sensitivity / epsilon to its outgoing parameter vector.  Clipping
the batch gradient to L2 norm C makes the sensitivity finite
(``algorithms.noise_spec``); epsilon may be infinite, which means no noise.
The privacy guarantee is per communication round; no composition across
rounds is claimed, and the budget report says so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import noise_stream  # noqa: F401  (callers import the noise stream from here)


@dataclass(frozen=True)
class PrivacyConfig:
    enabled: bool = False
    epsilon_bar: float = math.inf
    clip: float = 1.0

    def validate(self) -> None:
        if not self.epsilon_bar > 0:
            raise ConfigError(f"epsilon_bar must be positive, got {self.epsilon_bar}")
        if self.enabled and not self.clip > 0:
            raise ConfigError(f"clip must be positive, got {self.clip}")

    @property
    def is_private(self) -> bool:
        return self.enabled and math.isfinite(self.epsilon_bar)


@dataclass(frozen=True)
class NoiseSpec:
    """Sensitivity bound and the Laplace scale it implies."""

    delta_bar: float
    scale_b: float


def clip_gradient(grad: np.ndarray, clip_c: float) -> np.ndarray:
    """Scale ``grad`` so its L2 norm is at most ``clip_c``; zero stays zero.

    A stack of gradients (P, m) is clipped row by row.  Each row's norm is
    the square root of its own dot product, taken for every row by one
    stacked (1, m) x (m, 1) matmul, which numpy computes with the same BLAS
    dot as ``row.dot(row)`` and as ``np.linalg.norm`` of one real vector, so
    a row clips bitwise as it would alone; a norm over axis 1 rounds
    differently.  Returns ``grad`` itself when no row is scaled.
    """
    if clip_c <= 0:
        raise ConfigError(f"clip constant must be positive, got {clip_c}")
    rows = np.atleast_2d(grad)
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1))
    if np.all(norms <= clip_c):
        return grad
    # Unscaled rows are multiplied by exactly 1.0, which leaves them bitwise alone.
    scale = clip_c / np.maximum(norms, clip_c)
    return (rows * scale[:, None]).reshape(grad.shape)


def laplace_from_uniform(u: np.ndarray, scale_b: float) -> np.ndarray:
    """Inverse-CDF transform: u in [0,1) -> Laplace(0, b), with sgn(0) = 0.

    The u = 0 endpoint would map to -inf; the log argument is floored at the
    smallest positive double so samples stay finite (a 2^-53 probability event).
    """
    shifted = u - 0.5
    arg = np.maximum(1.0 - 2.0 * np.abs(shifted), 5e-324)
    return -scale_b * np.sign(shifted) * np.log(arg)


def laplace_sample(scale_b: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw m iid Laplace(0, b) values from a counter-based stream; b=0 gives zeros."""
    if scale_b < 0:
        raise ConfigError(f"noise scale must be nonnegative, got {scale_b}")
    if scale_b == 0.0:
        return np.zeros(m)
    return laplace_from_uniform(rng.random(m), scale_b)


def perturb_output(values: np.ndarray, spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Add the output-perturbation noise; identity (bitwise) when b = 0."""
    if spec.scale_b == 0.0:
        return values
    return values + laplace_sample(spec.scale_b, values.shape[0], rng)


def dp_budget_report(cfg: PrivacyConfig, spec: NoiseSpec, rounds: int) -> dict:
    """Per-round privacy budget summary; deliberately claims no composition.

    ``uncovered`` lists what a client releases each round that no noise covers.
    """
    return {
        "non_private": not cfg.is_private,
        "per_round_epsilon": None if not cfg.is_private else cfg.epsilon_bar,
        "delta_bar": spec.delta_bar,
        "b": spec.scale_b,
        "rounds": rounds,
        "composition": "none claimed; the guarantee is per communication round",
        "uncovered": ["train_loss: each client's exact mean loss on its own rows at the z it sends"],
    }
