"""Client-side engine: one object per client, one method call per round.

Over TCP, ``run_client`` wraps a ClientWorker in the JOIN / GLOBAL_MODEL /
LOCAL_UPDATE + TRAIN_LOSS / DONE state machine.  In-process, the carrier
hands each group of workers with equal ``group_key`` to
``ClientWorker.handle_group``, which runs their local updates as one stacked
computation per local step.  A lone worker is a group of one, so both
carriers share one local-update path.  Each client also reports
``train_loss``, its loss at the z it sends, so the server never needs a
client's rows.  A worker carries from round to round only the state its kind
declares (``carried``); each epoch's mini-batches are shuffled into new
arrays.  Every update a client produces is a pure function of (config, seed,
client id, round), whichever group it runs in, which is what makes runs
carrier-invariant and repeatable.
"""

from __future__ import annotations

import logging

import numpy as np

from . import algorithms, transport
from .blas import one_thread
from .config import RunConfig, build_data, initial_model
from .data import Dataset, batches, deal
from .errors import ConfigError, FlcoreError, NumericError, ProtocolError, TransportError
from .models import Batch, loss_and_grad, loss_and_outputs
from .privacy import NoiseSpec, noise_stream, perturb_output

log = logging.getLogger("flcore.worker")


class ClientWorker:
    def __init__(self, config: RunConfig, client_id: int, local_data: Dataset):
        _check_client_id(config, client_id)
        if local_data.size < 1:
            raise ConfigError(f"client {client_id} has no local data")
        self.config = config
        self.client_id = client_id
        self.local = local_data
        self.z: np.ndarray | None = None
        self.lam: np.ndarray | None = None

    # -- handshake -----------------------------------------------------------

    def handle_join_ack(self, settings: dict) -> None:
        """Refuse server settings that differ from ours, naming every differing key; then take the initial model.

        Our settings pass through the same encode/decode as the server's, so
        only a real difference shows.
        """
        ours = transport.decode_join_ack(transport.encode_join_ack(self.config))
        differ = [
            f"{key} (server {settings.get(key, 'absent')!r}, client {ours.get(key, 'absent')!r})"
            for key in sorted(settings.keys() | ours.keys())
            if key not in settings or key not in ours or settings[key] != ours[key]
        ]
        if differ:
            raise ConfigError(f"client {self.client_id} settings differ from the server's: {'; '.join(differ)}")
        # Both ADMM variants start z and lambda from the initial model.
        self.z = initial_model(self.config)
        self.lam = np.zeros_like(self.z)

    # -- per-round update ------------------------------------------------------

    def _perturb(self, z: np.ndarray, round_num: int, noise: NoiseSpec) -> np.ndarray:
        if not self.config.privacy.is_private:
            return z
        return perturb_output(z, noise, noise_stream(self.config.seed, self.client_id, round_num))

    @property
    def carried(self) -> dict:
        """The state this worker's kind carries between rounds, by attribute name: what a lane sends back."""
        return {name: getattr(self, name) for name in algorithms.ALGORITHMS[self.config.algo.kind].carries}

    @property
    def group_key(self) -> tuple:
        """In-process workers with equal keys run their rounds through one ``handle_group`` call.

        Equal local data size gives equal mini-batch shapes (the ragged last
        batch included).  A kind that does not stack keeps its clients alone.
        """
        if not algorithms.ALGORITHMS[self.config.algo.kind].stacks:
            return ("client", self.client_id)
        return (self.config, self.local.size)

    def handle_global(self, round_num: int, w: np.ndarray) -> list[np.ndarray]:
        """One local round; returns the payload vectors to communicate."""
        return ClientWorker.handle_group([self], round_num, w[None])[0]

    def train_loss(self, z: np.ndarray) -> float:
        """Mean loss of the outgoing ``z`` on this client's rows: what it reports for the round's ``train_loss``."""
        try:
            return loss_and_outputs(self.config.model, z, Batch(self.local.inputs, self.local.labels))[0]
        except NumericError as exc:
            raise NumericError(f"evaluating client {self.client_id}'s train loss: {exc}") from exc

    @staticmethod
    def handle_group(workers: list[ClientWorker], round_num: int, models: np.ndarray) -> list[list[np.ndarray]]:
        """One local round for workers of equal ``group_key``, as one stacked computation.

        ``models`` holds each client's decoded w, one row per worker; the kind's
        ``client_round`` runs on the stacked state it ``carries``, then written
        back.  One ``loss_and_grad`` call per local step serves every client;
        batches, noise and dual steps use each client's own streams and state,
        so each client's payloads, in worker order, are bitwise what it computes
        alone.  Each epoch's mini-batches are views of a new stacked copy of
        the group's data, freed with the round.  The round sets BLAS to one
        thread first and never back, so each lane process keeps to one core.
        """
        for worker in workers:
            if worker.lam is None or worker.z is None:
                raise TransportError(f"client {worker.client_id} received a model before JOIN_ACK")
        client_ids = [worker.client_id for worker in workers]
        config = workers[0].config
        algo, spec, kind = config.algo, config.model, algorithms.ALGORITHMS[config.algo.kind]
        noise = algorithms.noise_spec(algo, config.privacy, round_num)
        clip = config.privacy.clip if config.privacy.enabled else None

        def grad(z: np.ndarray, batch: Batch) -> np.ndarray:
            return loss_and_grad(spec, z, batch)[1]

        def epoch_batches(epoch: int) -> list[Batch]:
            return batches([w.local for w in workers], algo.batch_size, config.seed, client_ids, round_num, epoch)

        def full_batch() -> Batch:
            return Batch(_stack([w.local.inputs for w in workers]), _stack([w.local.labels for w in workers]))

        one_thread()
        try:
            payloads, state = kind.client_round(
                algo, algo.rho_at(round_num), models, [_stack([getattr(w, name) for w in workers]) for name in kind.carries],
                epoch_batches, full_batch, grad, clip, lambda p, v: workers[p]._perturb(v, round_num, noise),
            )
        except NumericError as exc:  # the caller names the round
            raise NumericError(f"client {client_ids[exc.row]}: {exc}") from exc
        for p, worker in enumerate(workers):
            vars(worker).update((name, stack[p]) for name, stack in zip(kind.carries, state))
        return payloads


def _check_client_id(config: RunConfig, client_id: int) -> None:
    if not 0 <= client_id < config.clients:
        raise ConfigError(f"client id {client_id} out of range for {config.clients} clients")


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Stack along a new client axis; a group of one gets a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def build_workers(config: RunConfig) -> list[ClientWorker]:
    """All P workers for an in-process run; each worker's rows are a view of one dealt dataset."""
    train, _, shards = build_data(config)
    return [ClientWorker(config, cid, rows) for cid, rows in enumerate(deal(train, shards))]


def build_worker(config: RunConfig, client_id: int) -> ClientWorker:
    """One worker for a remote client; re-derives the shared partition.

    The client's rows are copied out, so the rest of the dataset is freed on return.
    """
    _check_client_id(config, client_id)
    train, _, shards = build_data(config)
    rows = shards[client_id]
    return ClientWorker(config, client_id, Dataset(train.inputs[rows], train.labels[rows]))


def run_client(addr: str, client_id: int, config: RunConfig, timeout_s: float | None = None) -> None:
    """TCP client main loop: join, answer every round, stop on DONE."""
    _check_client_id(config, client_id)
    channel = transport.TcpClientChannel(addr, client_id, timeout_s or config.timeout_s)
    try:
        settings = channel.join()
        try:
            worker = build_worker(config, client_id)
            worker.handle_join_ack(settings)
        except FlcoreError as exc:  # the server reports it as a refusal at JOIN
            channel.send_error(0, str(exc))
            raise
        while True:
            env = channel.recv()
            if env.kind == transport.DONE:
                log.debug("client %d done after %d rounds", client_id, config.algo.rounds)
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
                loss = worker.train_loss(arrays[0])
            except FlcoreError as exc:
                # The server's report names this client and the round itself.
                channel.send_error(env.round_num, str(exc).removeprefix(f"client {client_id}: "))
                raise type(exc)(f"round {env.round_num}: {exc}") from exc
            channel.send_update(env.round_num, arrays, loss)
    finally:
        channel.close()
