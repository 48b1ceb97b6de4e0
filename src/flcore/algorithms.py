"""Server and client update rules for FedAvg, ICEADMM, and IIADMM.

The consensus formulation keeps a global vector w on the server and a local
pair (z_p, lambda_p) per client.  Each round the server broadcasts w, clients
take L local steps, and the server aggregates:

* FedAvg    -- local SGD with momentum from w; global weighted average of z_p.
* ICEADMM   -- L full-batch linearized-proximal primal steps, each followed by
               a dual step; both z_p and lambda_p travel to the server.
* IIADMM    -- L epochs of batched linearized-proximal steps starting from the
               broadcast w; the dual step runs independently on client AND
               server from the same inputs, so only z_p travels.

All updates are pure functions: a kind's ``client_round`` takes a group's
(z, lambda) and returns them, and the caller stores them and owns scheduling.
The local updates take one client's vectors (m,) or a group's stacked (P, m):
their element-wise steps broadcast, grad_fn returns gradients of the same
shape, and a NumericError carries the row of the first non-finite client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .privacy import NoiseSpec, PrivacyConfig, clip_gradient


@dataclass(frozen=True)
class Algorithm:
    """The facts about one algorithm kind that modules outside this one need."""

    vectors_up: int  # vectors per LOCAL_UPDATE: z, then lambda for ICEADMM
    # (algo, rho_t, models, z, lam, epoch_batches, full_batch, grad_fn, clip_c, perturb) -> (payloads, z, lam):
    # one group's local round; row p of each array, payloads[p] and perturb(p, v) (v noised) are client p's.
    client_round: Callable
    admm: bool  # uses rho/zeta; FedAvg uses eta/beta instead
    # In-process clients of equal data size share one stacked handle_group call.
    # Not ICEADMM: stacking its flops-bound full-batch step measured slower and bigger
    # (fullbatch-iceadmm, 3 seeds, 2 vCPU: round_ms_p50 78-89 -> 106-114 ms, peak_rss_mb 71.3-71.5 -> 87.4-87.5);
    # its lone clients run in lane processes instead when a round's work is large (transport.LANE_WORK).
    stacks: bool
    sensitivity: Callable  # (algo, clip_c, rho_t) -> the bound noise_spec calibrates the noise to


# grad_fn(z, batch) -> raw batch-mean gradient at z
GradFn = Callable[[np.ndarray, object], np.ndarray]
# epoch_batches(epoch) -> the batch sequence for that epoch
EpochBatches = Callable[[int], Sequence[object]]


@dataclass(frozen=True)
class AlgoConfig:
    kind: str = "fedavg"
    rho: float = 1.0
    zeta: float = 0.0
    eta: float = 0.1
    beta: float = 0.0
    local_steps: int = 1
    batch_size: int = 64
    rounds: int = 1
    # Optional geometric penalty schedule; gamma=1 keeps rho constant.
    rho_gamma: float = 1.0
    rho_max: float = float("inf")

    def validate(self) -> None:
        if self.kind not in ALGO_KINDS:
            raise ConfigError(f"unknown algorithm kind {self.kind!r}; expected one of {ALGO_KINDS}")
        if ALGORITHMS[self.kind].admm:
            if self.rho <= 0:
                raise ConfigError(f"{self.kind} needs rho > 0, got {self.rho}")
            if self.zeta < 0:
                raise ConfigError(f"zeta must be nonnegative, got {self.zeta}")
            if self.rho_max <= 0:
                raise ConfigError(f"rho_max must be positive, got {self.rho_max}")
        else:
            if self.eta <= 0:
                raise ConfigError(f"{self.kind} needs a positive step size, got {self.eta}")
            if not 0.0 <= self.beta < 1.0:
                raise ConfigError(f"momentum must lie in [0, 1), got {self.beta}")
        if self.local_steps < 1:
            raise ConfigError(f"local_steps must be positive, got {self.local_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.rounds < 0:
            raise ConfigError(f"rounds must be nonnegative, got {self.rounds}")
        if self.rho_gamma < 1.0:
            raise ConfigError(f"rho_gamma must be >= 1, got {self.rho_gamma}")

    def rho_at(self, round_num: int) -> float:
        """Penalty for a 1-based round under the (optional) geometric schedule."""
        if self.rho_gamma == 1.0:
            return self.rho
        return min(self.rho_max, self.rho * self.rho_gamma ** (round_num - 1))


def noise_spec(algo: AlgoConfig, privacy: PrivacyConfig, round_num: int) -> NoiseSpec:
    """Round ``round_num``'s sensitivity Delta and Laplace scale b = Delta / epsilon; both 0 with privacy off.

    Clipping bounds each gradient's L2 norm by C, so neighbouring datasets move
    one local step's gradient by at most 2C, and z by that times the step's
    factor: 1/(rho_t + zeta) for ADMM, eta for FedAvg.  Known gaps, kept so runs
    follow the paper's calibration (Ryu & Kim, arXiv:2106.06127): Laplace needs
    the L1 sensitivity (Dwork & Roth 2014, Thm 3.6), up to sqrt(m) times this L2
    bound, and L local steps can add up L such moves.
    """
    if not privacy.enabled:
        return NoiseSpec(delta_bar=0.0, scale_b=0.0)
    delta = ALGORITHMS[algo.kind].sensitivity(algo, privacy.clip, algo.rho_at(round_num))
    return NoiseSpec(delta_bar=delta, scale_b=delta / privacy.epsilon_bar if privacy.is_private else 0.0)


def _same_dim(*vectors: np.ndarray) -> None:
    dims = {v.shape for v in vectors}
    if len(dims) > 1:
        raise ShapeError(f"vector dimensions disagree: {sorted(dims)}")


def inexact_step(z, g, lam, rho, zeta, w):
    """One linearized proximal step: z - (g - lam - rho*(w - z)) / (rho + zeta)."""
    return z - (g - lam - rho * (w - z)) / (rho + zeta)


def prox_closed_form(z, g, lam, rho, zeta, w):
    """The algebraically identical closed form (zeta*z + rho*w + lam - g)/(rho+zeta)."""
    return (zeta * z + rho * w + lam - g) / (rho + zeta)


def dual_update(lam: np.ndarray, rho: float, w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """lam + rho * (w - z); run identically on server and client for IIADMM."""
    _same_dim(lam, w, z)
    return lam + rho * (w - z)


def _clipped(grad_fn: GradFn, z: np.ndarray, batch, clip_c: float | None, where: str) -> np.ndarray:
    try:
        g = grad_fn(z, batch)
    except NumericError as exc:
        raise NumericError(f"{exc} at {where}", row=exc.row) from exc
    if clip_c is not None:
        g = clip_gradient(g, clip_c)
    return g


def _check_finite(where: str, *iterates: np.ndarray) -> None:
    """Raise at the first non-finite iterate, naming its row (its client) in a stack."""
    finite = np.logical_and.reduce([np.isfinite(v).all(axis=-1) for v in iterates])
    if not np.all(finite):
        raise NumericError(f"non-finite iterate at {where}", row=int(np.argmin(finite)))


def iiadmm_local(
    w: np.ndarray,
    lam: np.ndarray,
    rho: float,
    zeta: float,
    local_epochs: int,
    epoch_batches: EpochBatches,
    grad_fn: GradFn,
    clip_c: float | None = None,
) -> np.ndarray:
    """Batched local primal update starting from the broadcast w.

    Runs ``local_epochs`` passes over the epoch's batches, applying the
    linearized proximal step per batch.  The dual step is NOT taken here; the
    caller applies it (mirrored on the server) to the communicated z.
    """
    _same_dim(w, lam)
    z = w.copy()
    for epoch in range(1, local_epochs + 1):
        for b, batch in enumerate(epoch_batches(epoch)):
            where = f"local epoch {epoch}, batch {b}"
            g = _clipped(grad_fn, z, batch, clip_c, where)
            z = inexact_step(z, g, lam, rho, zeta, w)
            _check_finite(where, z)
    return z


def iceadmm_local(
    z: np.ndarray,
    lam: np.ndarray,
    w: np.ndarray,
    rho: float,
    zeta: float,
    local_steps: int,
    full_batch,
    grad_fn: GradFn,
    clip_c: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """L alternating primal/dual steps on the full local batch.

    Continues from the client's own (z, lam); both move and both are
    communicated afterwards.
    """
    _same_dim(z, lam, w)
    for step in range(1, local_steps + 1):
        where = f"local step {step}"
        g = _clipped(grad_fn, z, full_batch, clip_c, where)
        z = prox_closed_form(z, g, lam, rho, zeta, w)
        lam = dual_update(lam, rho, w, z)
        _check_finite(where, z, lam)
    return z, lam


def fedavg_local(
    w: np.ndarray,
    eta: float,
    beta: float,
    local_epochs: int,
    epoch_batches: EpochBatches,
    grad_fn: GradFn,
    clip_c: float | None = None,
) -> np.ndarray:
    """Local SGD with momentum; the velocity resets every round."""
    z = w.copy()
    velocity = np.zeros_like(w)
    for epoch in range(1, local_epochs + 1):
        for b, batch in enumerate(epoch_batches(epoch)):
            where = f"local epoch {epoch}, batch {b}"
            g = _clipped(grad_fn, z, batch, clip_c, where)
            velocity = beta * velocity + g
            z = z - eta * velocity
            _check_finite(where, z)
    return z


def iiadmm_global(z_list: Sequence[np.ndarray], duals: Sequence[np.ndarray], rho: float) -> np.ndarray:
    """w = (1/P) * sum_p (z_p - duals_p / rho), with the server's own duals."""
    if rho <= 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    if len(z_list) != len(duals) or not z_list:
        raise ShapeError("need one dual per client update")
    _same_dim(*z_list, *duals)
    acc = np.zeros_like(z_list[0])
    for z, lam in zip(z_list, duals):
        acc += z - lam / rho
    return acc / len(z_list)


def iceadmm_global(z_list: Sequence[np.ndarray], lam_list: Sequence[np.ndarray], rho: float) -> np.ndarray:
    """Same aggregate as IIADMM but with the client-communicated duals."""
    return iiadmm_global(z_list, lam_list, rho)


def fedavg_global(z_list: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted average of the local models, weights summing to one."""
    if len(z_list) != len(weights) or not z_list:
        raise ShapeError("need one weight per client update")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ConfigError(f"weights must sum to 1, got {sum(weights)}")
    _same_dim(*z_list)
    acc = np.zeros_like(z_list[0])
    for z, wt in zip(z_list, weights):
        acc += wt * z
    return acc


def _fedavg_round(algo, rho_t, models, z, lam, epoch_batches, full_batch, grad_fn, clip_c, perturb):
    new_z = fedavg_local(models, algo.eta, algo.beta, algo.local_steps, epoch_batches, grad_fn, clip_c)
    return [[perturb(p, row)] for p, row in enumerate(new_z)], z, lam


def _iiadmm_round(algo, rho_t, models, z, lam, epoch_batches, full_batch, grad_fn, clip_c, perturb):
    # One split per round, reused across the L local epochs.
    fixed = epoch_batches(0)
    new_z = iiadmm_local(models, lam, rho_t, algo.zeta, algo.local_steps, lambda epoch: fixed, grad_fn, clip_c)
    z_out = [perturb(p, row) for p, row in enumerate(new_z)]
    # Mirrored dual step: the server applies the same formula to the same
    # communicated (noised) value, so both sides stay bitwise equal.
    lam = [dual_update(lam[p], rho_t, models[p], z_out[p]) for p in range(len(models))]
    return [[row] for row in z_out], z, lam


def _iceadmm_round(algo, rho_t, models, z, lam, epoch_batches, full_batch, grad_fn, clip_c, perturb):
    # Full batch; the noiseless z and lam carry over between rounds.
    z, lam = iceadmm_local(z, lam, models, rho_t, algo.zeta, algo.local_steps, full_batch(), grad_fn, clip_c)
    return [[perturb(p, z[p]), lam[p]] for p in range(len(models))], z, lam


ALGORITHMS = {
    "fedavg": Algorithm(1, _fedavg_round, admm=False, stacks=True, sensitivity=lambda algo, c, rho_t: 2.0 * c * algo.eta),
    "iceadmm": Algorithm(
        2, _iceadmm_round, admm=True, stacks=False, sensitivity=lambda algo, c, rho_t: 2.0 * c / (rho_t + algo.zeta)
    ),
    "iiadmm": Algorithm(
        1, _iiadmm_round, admm=True, stacks=True, sensitivity=lambda algo, c, rho_t: 2.0 * c / (rho_t + algo.zeta)
    ),
}
ALGO_KINDS = tuple(ALGORITHMS)
