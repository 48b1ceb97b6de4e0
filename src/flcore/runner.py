"""The T-round training loop, validation, metrics emission, and epsilon sweeps.

Each round: broadcast w, gather every client's update in id order, apply the
dual step (IIADMM) and then the global aggregate, gather the train loss each
client reports, validate, append one metrics line.  The server reads no
client's training rows: it deals them only to build in-process workers, and
with a caller's carrier it keeps only a copy of its test split.  The
metrics file is a deterministic record: with a fixed config and seed, two
runs (on either carrier) produce byte-identical files, so the file's timing
keys are written as 0.0; ``flbench/`` measures timings.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .algorithms import ALGORITHMS, dual_update, fedavg_global, iceadmm_global, iiadmm_global, noise_spec
from .config import RunConfig, build_data, initial_model
from .data import Dataset, deal
from .errors import ConfigError, FlcoreError, NumericError, ProtocolError
from .models import Batch, ModelSpec, loss_and_outputs, param_count
# Unused here, but flbench/tracing.py patches these names in this module (ROADMAP item 16).
from .models import loss_and_grad, predict  # noqa: F401
from .privacy import dp_budget_report
from .transport import HEADER_SIZE, InProcessCarrier, decode_vectors
from .worker import ClientWorker

log = logging.getLogger("flcore.runner")

# Part of the metrics schema, but written as 0.0: wall clock is not a function
# of (config, seed) and would break the byte-reproducibility of the file.
_TIMING_KEYS = {"t_local_ms": 0.0, "t_comm_ms": 0.0, "t_global_ms": 0.0}


@dataclass
class RoundMetrics:
    """One round's record; its fields, in order, are the keys of a metrics line."""

    round: int
    train_loss: float = 0.0
    test_acc: float | None = None
    consensus_residual: float = 0.0
    bytes_up: int = 0
    bytes_down: int = 0
    payload_bytes_up: int = 0


@dataclass
class RunRecord:
    metrics: list[RoundMetrics]
    final_w: np.ndarray
    dp_report: dict


def metrics_line(m: RoundMetrics) -> str:
    """One JSON metrics line: the fields of ``m``, then the zero timing keys."""
    return json.dumps({**asdict(m), **_TIMING_KEYS})


def validate(spec: ModelSpec, params: np.ndarray, test_data: Dataset) -> tuple[float, float | None]:
    """Mean loss and (for classifiers) argmax accuracy on a dataset, from one forward pass.

    ``loss_and_outputs`` sets BLAS to one thread and never back, as client
    rounds do, so the loss and accuracy do not depend on the host's BLAS
    thread count, and a pass that overlaps client threads leaves them at one.
    """
    if test_data.size == 0:
        raise ConfigError("validation requires a nonempty test set")
    loss, outputs = loss_and_outputs(spec, params, Batch(test_data.inputs, test_data.labels))
    accuracy = None
    if spec.is_classifier:
        accuracy = float(np.mean(np.argmax(outputs, axis=-1) == test_data.labels))
    return loss, accuracy


def train(
    config: RunConfig,
    carrier=None,
    metrics_path: str | None = None,
    on_round_end=None,
) -> RunRecord:
    """Run the full federation; returns the per-round record and final model.

    With carrier=None an in-process carrier is built from the config.  A
    pre-started TCP carrier may be passed instead; the trajectory is the same
    either way.  ``on_round_end(t, w, duals, carrier)`` is a test hook.
    """
    writer = None
    try:
        config.validate()
        m = param_count(config.model)
        train_data, test_data, shards = build_data(config)
        weights = [len(shard) / train_data.size for shard in shards]

        w = initial_model(config)
        duals = [np.zeros(m) for _ in range(config.clients)]

        if carrier is None:
            carrier = InProcessCarrier([ClientWorker(config, cid, rows) for cid, rows in enumerate(deal(train_data, shards))])
        else:  # no rows to deal: copy the test split out, so the build buffer and its training rows are freed
            test_data = Dataset(test_data.inputs.copy(), test_data.labels.copy())
        del train_data, shards

        dp_report = dp_budget_report(config.privacy, noise_spec(config.algo, config.privacy, 1), config.algo.rounds)
        record = RunRecord(metrics=[], final_w=w, dp_report=dp_report)
        writer = open(metrics_path, "w") if metrics_path else None
        carrier.start(config)
        for t in range(1, config.algo.rounds + 1):
            try:
                w, duals, metrics = _run_round(config, carrier, t, w, duals, weights, test_data)
            except FlcoreError as exc:
                raise type(exc)(f"round {t}: {exc}") from exc
            record.metrics.append(metrics)
            record.final_w = w
            if writer:
                writer.write(metrics_line(metrics) + "\n")
                writer.flush()
            if on_round_end is not None:
                on_round_end(t, w, duals, carrier)
        carrier.finish()
    except BaseException:
        if carrier is not None:
            carrier.close()
        raise
    finally:
        if writer:
            writer.close()
    return record


def _run_round(config, carrier, t, w, duals, weights, test_data):
    spec, algo = config.model, config.algo
    m = param_count(spec)
    rho_t = algo.rho_at(t)

    bytes_down = carrier.broadcast_model(t, w)
    envelopes = carrier.gather_updates(t, config.timeout_s)

    expected = ALGORITHMS[algo.kind].vectors_up
    z_list, lam_list = [], []
    for env in envelopes:
        vectors = decode_vectors(env.payload)
        if len(vectors) != expected:
            raise ProtocolError(
                f"client {env.client_id} sent {len(vectors)} vectors, {algo.kind} expects {expected}"
            )
        if any(v.shape[0] != m for v in vectors):
            raise ProtocolError(f"client {env.client_id} sent a vector of the wrong dimension")
        if not all(np.isfinite(v).all() for v in vectors):
            raise ProtocolError(f"client {env.client_id} sent a non-finite value")
        z_list.append(vectors[0])
        if expected == 2:
            lam_list.append(vectors[1])

    # Dual step first: the aggregate pairs each fresh z with its fresh dual.
    if algo.kind == "iiadmm":
        for p in range(len(duals)):
            duals[p] = dual_update(duals[p], rho_t, w, z_list[p])
        w_new = iiadmm_global(z_list, duals, rho_t)
    elif algo.kind == "iceadmm":
        w_new = iceadmm_global(z_list, lam_list, rho_t)
    else:
        w_new = fedavg_global(z_list, weights)

    train_loss = 0.0
    residual = 0.0
    for p, loss in enumerate(carrier.gather_losses(t, config.timeout_s)):
        if not math.isfinite(loss):
            raise ProtocolError(f"client {p} sent a non-finite train loss")
        train_loss += weights[p] * loss
        residual = max(residual, float(np.max(np.abs(w_new - z_list[p]))))

    test_acc = None
    if test_data.size and (t % config.eval_every == 0 or t == algo.rounds):
        try:
            _, test_acc = validate(spec, w_new, test_data)
        except NumericError as exc:
            raise NumericError(f"evaluating the test split: {exc}") from exc

    payload_up = sum(len(env.payload) for env in envelopes)
    metrics = RoundMetrics(
        round=t,
        train_loss=train_loss,
        test_acc=test_acc,
        consensus_residual=residual,
        bytes_up=payload_up + HEADER_SIZE * len(envelopes),
        bytes_down=bytes_down,
        payload_bytes_up=payload_up,
    )
    return w_new, duals, metrics


def final_accuracy(record: RunRecord) -> float:
    """Last evaluated test accuracy of a run."""
    for m in reversed(record.metrics):
        if m.test_acc is not None:
            return m.test_acc
    raise ConfigError("run produced no test accuracy (regression model or empty test set)")


def epsilon_sweep(base_config: RunConfig, eps_list, seeds) -> list[dict]:
    """Final accuracy per privacy budget, averaged over seeds.

    Privacy is force-enabled for every run so the budget is the only thing
    changing; duplicate budgets are dropped with a warning.
    """
    if not eps_list:
        raise ConfigError("epsilon sweep needs at least one budget")
    if not seeds:
        raise ConfigError("epsilon sweep needs at least one seed")
    unique = []
    for eps in eps_list:
        if eps in unique:
            log.warning("duplicate epsilon %s dropped from sweep", eps)
        else:
            unique.append(eps)

    rows = []
    for eps in unique:
        accuracies = []
        for seed in seeds:
            cfg = replace(
                base_config,
                seed=int(seed),
                privacy=replace(base_config.privacy, enabled=True, epsilon_bar=float(eps)),
            )
            accuracies.append(final_accuracy(train(cfg)))
        rows.append(
            {
                "epsilon": float(eps),
                "seeds": [int(s) for s in seeds],
                "accuracies": accuracies,
                "mean_accuracy": float(np.mean(accuracies)),
                "std_accuracy": float(np.std(accuracies)),
            }
        )
    return rows


def write_sweep_csv(rows: list[dict], path: str) -> None:
    """Plot-ready long-form CSV: one (epsilon, seed, accuracy) point per line."""
    with open(path, "w") as f:
        f.write("epsilon,seed,final_accuracy\n")
        for row in rows:
            eps = "inf" if math.isinf(row["epsilon"]) else repr(row["epsilon"])
            for seed, acc in zip(row["seeds"], row["accuracies"]):
                f.write(f"{eps},{seed},{acc!r}\n")
