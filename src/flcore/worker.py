"""Client-side engine: one object per client, one method call per round.

Over TCP, ``run_client`` wraps a ClientWorker in the JOIN / GLOBAL_MODEL /
LOCAL_UPDATE / DONE state machine.  In-process, the carrier hands each group
of workers with equal ``group_key`` to ``ClientWorker.handle_group``, which
runs their local updates as one stacked computation per local step.  A lone
worker is a group of one, so both carriers share one local-update path.
Every update a client produces is a pure function of (config, seed, client
id, round), whichever group it runs in, which is what makes runs
carrier-invariant and repeatable.
"""

from __future__ import annotations

import logging

import numpy as np

from . import algorithms, transport
from .config import RunConfig, build_data
from .data import BatchPlan, Dataset, batches, shuffle_buffer
from .errors import ConfigError, FlcoreError, NumericError, ProtocolError, TransportError
from .models import Batch, loss_and_grad
from .privacy import NoiseSpec, noise_stream, perturb_output, sensitivity

log = logging.getLogger("flcore.worker")


class ClientWorker:
    def __init__(self, config: RunConfig, client_id: int, local_data: Dataset):
        if not 0 <= client_id < config.clients:
            raise ConfigError(f"client id {client_id} out of range for {config.clients} clients")
        if local_data.size < 1:
            raise ConfigError(f"client {client_id} has no local data")
        self.config = config
        self.client_id = client_id
        self.local = local_data
        self.plan = BatchPlan(batch_size=config.algo.batch_size, shuffle_seed=config.seed)
        self.rounds = config.algo.rounds
        self.z: np.ndarray | None = None
        self.lam: np.ndarray | None = None
        # The (inputs, labels) stack that ``handle_group`` shuffles into when
        # this worker leads its group, kept for the whole run.
        self.shuffle: tuple[np.ndarray, np.ndarray] | None = None

    # -- handshake -----------------------------------------------------------

    def handle_join_ack(self, session: transport.SessionConfig) -> None:
        """Adopt the server-authoritative session header, refusing any mismatch."""
        if session.model != self.config.model:
            raise ConfigError(
                f"server model {session.model} does not match local config {self.config.model}"
            )
        if session.algo_kind != self.config.algo.kind:
            raise ConfigError(
                f"server runs {session.algo_kind!r} but local config says {self.config.algo.kind!r}"
            )
        self.rounds = session.rounds
        # Both ADMM variants start z and lambda from the shared initial model.
        self.z = session.initial_w.copy()
        self.lam = np.zeros_like(session.initial_w)

    # -- per-round update ------------------------------------------------------

    def _perturb(self, z: np.ndarray, round_num: int, rho_t: float) -> np.ndarray:
        privacy = self.config.privacy
        if not privacy.is_private:
            return z
        algo = self.config.algo
        delta = sensitivity(algo.kind, privacy.clip_c, rho_t, algo.zeta, algo.eta)
        spec = NoiseSpec.for_run(privacy, delta)
        return perturb_output(z, spec, noise_stream(self.config.seed, self.client_id, round_num))

    @property
    def group_key(self) -> tuple:
        """In-process workers with equal keys run their rounds through one ``handle_group`` call.

        Equal local data size gives equal mini-batch shapes (the ragged last
        batch included).  ICEADMM clients stay alone: their full-batch step
        is bound by flops, and stacking it would hold every client's
        full-batch intermediates at once.
        """
        if self.config.algo.kind == "iceadmm":
            return ("client", self.client_id)
        return (self.config, self.local.size)

    def handle_global(self, round_num: int, w: np.ndarray) -> list[np.ndarray]:
        """One local round; returns the payload vectors to communicate."""
        return ClientWorker.handle_group([self], round_num, w[None])[0]

    @staticmethod
    def handle_group(workers: list[ClientWorker], round_num: int, models: np.ndarray) -> list[list[np.ndarray]]:
        """One local round for workers of equal ``group_key``, as one stacked computation.

        ``models`` holds each client's decoded w, one row per worker.  One
        ``loss_and_grad`` call per local step serves every client; batches,
        noise and the IIADMM dual step use each client's own streams and
        state, so each client's payload vectors, returned in worker order,
        are bitwise what it computes alone.  The mini-batches are views of
        the first worker's shuffle buffer, allocated on its first batched round.
        """
        for worker in workers:
            if worker.lam is None or worker.z is None:
                raise TransportError(f"client {worker.client_id} received a model before JOIN_ACK")
        client_ids = [worker.client_id for worker in workers]
        config = workers[0].config
        algo, spec = config.algo, config.model
        rho_t = algo.rho_at(round_num)
        clip = config.privacy.clip_c if config.privacy.enabled else None

        def grad(z: np.ndarray, batch: Batch) -> np.ndarray:
            return loss_and_grad(spec, z, batch)[1]

        lead = workers[0]

        def epoch_batches(epoch: int) -> list[Batch]:
            if lead.shuffle is None or lead.shuffle[0].shape[0] != len(workers):
                lead.shuffle = shuffle_buffer(lead.local, len(workers))
            return batches([w.local for w in workers], lead.plan, client_ids, round_num, epoch, lead.shuffle)

        try:
            if algo.kind == "fedavg":
                z = algorithms.fedavg_local(models, algo.eta, algo.beta, algo.local_steps, epoch_batches, grad, clip)
                return [[worker._perturb(z[p], round_num, rho_t)] for p, worker in enumerate(workers)]
            if algo.kind == "iiadmm":
                # One split per round, reused across the L local epochs.
                fixed = epoch_batches(0)
                lam = _stack([worker.lam for worker in workers])
                z = algorithms.iiadmm_local(
                    models, lam, rho_t, algo.zeta, algo.local_steps, lambda epoch: fixed, grad, clip
                )
                payloads = []
                for p, worker in enumerate(workers):
                    z_out = worker._perturb(z[p], round_num, rho_t)
                    # Mirrored dual step: the server applies the same formula to the
                    # same communicated value, so both sides stay bitwise equal.
                    worker.lam = algorithms.dual_update(worker.lam, rho_t, models[p], z_out)
                    payloads.append([z_out])
                return payloads
            # iceadmm: full batch, state carries over between rounds.
            full = Batch(_stack([w.local.inputs for w in workers]), _stack([w.local.labels for w in workers]))
            z, lam = algorithms.iceadmm_local(
                _stack([w.z for w in workers]),
                _stack([w.lam for w in workers]),
                models,
                rho_t,
                algo.zeta,
                algo.local_steps,
                full,
                grad,
                clip,
            )
            for p, worker in enumerate(workers):
                worker.z, worker.lam = z[p], lam[p]
            return [[worker._perturb(worker.z, round_num, rho_t), worker.lam] for worker in workers]
        except NumericError as exc:
            raise NumericError(f"client {client_ids[exc.row]}, round {round_num}: {exc}") from exc

    def handle_done(self, env: transport.Envelope) -> None:
        log.debug("client %d done after %d rounds", self.client_id, self.rounds)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Stack along a new client axis; a group of one gets a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def build_workers(config: RunConfig) -> list[ClientWorker]:
    """All P workers for an in-process run, sharing one materialized dataset."""
    train, _, part = build_data(config)
    return [
        ClientWorker(config, cid, train.subset(part.assignments[cid]))
        for cid in range(config.clients)
    ]


def build_worker(config: RunConfig, client_id: int) -> ClientWorker:
    """One worker for a remote client; re-derives the shared partition."""
    train, _, part = build_data(config)
    if client_id >= len(part.assignments):
        raise ConfigError(f"client id {client_id} out of range for {config.clients} clients")
    return ClientWorker(config, client_id, train.subset(part.assignments[client_id]))


def run_client(addr: str, client_id: int, config: RunConfig, timeout_s: float | None = None) -> None:
    """TCP client main loop: join, answer every round, stop on DONE."""
    channel = transport.TcpClientChannel(addr, client_id, timeout_s or config.timeout_s)
    try:
        session = channel.join()
        worker = build_worker(config, client_id)
        worker.handle_join_ack(session)
        while True:
            env = channel.recv()
            if env.kind == transport.DONE:
                worker.handle_done(env)
                return
            if env.kind == transport.ERROR:
                raise TransportError(f"server error: {env.payload.decode('utf-8', 'replace')}")
            if env.kind != transport.GLOBAL_MODEL:
                raise ProtocolError(f"unexpected {transport.KIND_NAMES[env.kind]} frame mid-session")
            vectors = transport.decode_vectors(env.payload)
            if len(vectors) != 1:
                raise ProtocolError("GLOBAL_MODEL must carry exactly one vector")
            try:
                arrays = worker.handle_global(env.round_num, vectors[0])
            except FlcoreError as exc:
                channel.send_error(env.round_num, str(exc))
                raise
            channel.send_update(env.round_num, arrays)
    finally:
        channel.close()
