"""Dataset construction, client partitioning, and mini-batching.

Synthetic generators cover the two desk-scale workloads (noisy linear
regression and Gaussian blob classification); IDX and CSV loaders bring in
real files.  Partitioning supports an equal contiguous split, an IID shuffle,
and a label-sorted shard deal for controllable non-IID skew.  Everything here
is a seeded function: the same arguments always produce bitwise-equal
arrays.  Each dataset is held once: the holdout split and the deal to
clients reorder its rows in place, and each client's rows are a view.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .errors import ConfigError, IngestionError
from .models import Batch

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

PARTITION_SCHEMES = ("equal", "iid-shuffle", "label-shards")

# Largest block of rows that train_test_split copies at once while it
# reorders a dataset in place.
MOVE_CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


def generate_synthetic(
    kind: str,
    n: int,
    input_dim: int,
    classes: int = 2,
    noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Seeded synthetic dataset.

    ``regression``: y = <x, w*> + b* + noise*eps with w*, b* drawn once from
    the seed.  ``blobs``: one Gaussian cluster per class with centre
    separation at least 4*noise, labels assigned round-robin.
    """
    if n < 1 or input_dim < 1 or classes < 1:
        raise ConfigError("n, input_dim and classes must be positive")
    if n < classes:
        raise ConfigError(f"need at least one sample per class ({n} < {classes})")
    gen = rng.stream("synthetic", kind, n, input_dim, classes, noise, seed)
    if kind == "regression":
        w_true = gen.uniform(-2.0, 2.0, size=input_dim)
        b_true = gen.uniform(-2.0, 2.0)
        x = gen.standard_normal((n, input_dim))
        y = x @ w_true + b_true
        if noise > 0:
            y = y + noise * gen.standard_normal(n)
        return Dataset(x, y)
    if kind == "blobs":
        if classes > 1 and input_dim < 2:
            raise ConfigError("blobs with more than one class need input_dim >= 2")
        # Centres sit on a circle in the first two coordinates; the radius
        # guarantees pairwise distance >= 4*noise (floored at 1 so noise=0
        # still separates).
        radius = 1.0
        if classes > 1:
            radius = max(1.0, 4.0 * noise / (2.0 * np.sin(np.pi / classes)))
        centers = np.zeros((classes, input_dim))
        angles = 2.0 * np.pi * np.arange(classes) / max(classes, 1)
        centers[:, 0] = radius * np.cos(angles)
        if input_dim >= 2:
            centers[:, 1] = radius * np.sin(angles)
        labels = np.arange(n, dtype=np.int64) % classes
        # In place, bitwise equal to centers[labels] + noise * normals.
        x = gen.standard_normal((n, input_dim))
        x *= noise
        x += centers[labels]
        return Dataset(x, labels)
    raise ConfigError(f"unknown synthetic kind {kind!r}; expected 'regression' or 'blobs'")


def _split_sizes(total: int, parts: int) -> list[int]:
    # First `total % parts` parts get one extra element.
    base, extra = divmod(total, parts)
    return [base + (1 if p < extra else 0) for p in range(parts)]


def partition(
    dataset: Dataset,
    num_clients: int,
    scheme: str = "equal",
    seed: int = 0,
    shards_per_client: int = 2,
) -> list[np.ndarray]:
    """Split sample indices across clients: one sorted index array per client.

    ``equal``: contiguous blocks, remainder spread over the first clients.
    ``iid-shuffle``: the same block sizes after a seeded permutation.
    ``label-shards``: sort by label, cut into num_clients*shards_per_client
    shards, deal shards_per_client to each client by seeded permutation.
    """
    total = dataset.size
    if num_clients < 1:
        raise ConfigError("need at least one client")
    if num_clients > total:
        raise ConfigError(f"cannot split {total} samples across {num_clients} clients")
    if scheme not in PARTITION_SCHEMES:
        raise ConfigError(f"unknown partition scheme {scheme!r}; expected one of {PARTITION_SCHEMES}")

    if scheme == "label-shards":
        if shards_per_client < 1:
            raise ConfigError("shards_per_client must be positive")
        num_shards = num_clients * shards_per_client
        if num_shards > total:
            raise ConfigError(f"cannot cut {total} samples into {num_shards} shards")
        order = np.lexsort((np.arange(total), dataset.labels))
        shard_sizes = _split_sizes(total, num_shards)
        bounds = np.cumsum([0] + shard_sizes)
        shards = [order[bounds[i] : bounds[i + 1]] for i in range(num_shards)]
        deal = rng.stream("partition", scheme, seed, num_clients, shards_per_client).permutation(num_shards)
        assignments = []
        for p in range(num_clients):
            mine = deal[p * shards_per_client : (p + 1) * shards_per_client]
            assignments.append(np.sort(np.concatenate([shards[s] for s in mine])))
    else:
        order = np.arange(total)
        if scheme == "iid-shuffle":
            order = rng.stream("partition", scheme, seed, num_clients).permutation(total)
        bounds = np.cumsum([0] + _split_sizes(total, num_clients))
        assignments = [np.sort(order[bounds[p] : bounds[p + 1]]) for p in range(num_clients)]

    _check_partition(assignments, total)
    return assignments


def deal(dataset: Dataset, assignments: Sequence[np.ndarray]) -> list[Dataset]:
    """Each client's rows as a view, after writing them over ``dataset`` client by client.

    Each client keeps its rows' order, so an ``equal`` partition moves no row;
    the rows from the first one that moves on are copied once.
    """
    order = np.concatenate(assignments)
    moved = np.flatnonzero(order != np.arange(len(order)))
    if len(moved):
        start = moved[0]
        for array in (dataset.inputs, dataset.labels):
            array[start:] = array[order[start:]]
    bounds = np.cumsum([0] + [len(rows) for rows in assignments])
    return [Dataset(dataset.inputs[a:b], dataset.labels[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _check_partition(assignments: list[np.ndarray], total: int) -> None:
    merged = np.concatenate(assignments) if assignments else np.array([], dtype=np.int64)
    if len(np.unique(merged)) != len(merged):
        raise ConfigError("partition produced overlapping index sets")
    if len(merged) != total:
        raise ConfigError("partition does not cover the dataset")
    if any(len(a) == 0 for a in assignments):
        raise ConfigError("partition produced an empty client")


def batches(
    datasets: Sequence[Dataset],
    batch_size: int,
    shuffle_seed: int,
    client_ids: Sequence[int],
    round_num: int,
    epoch: int,
) -> list[Batch]:
    """Seeded mini-batches for a group of clients with equal local sizes.

    Client p's rows are shuffled by (shuffle_seed, client_ids[p], round,
    epoch) into row p of one new (P, n, d) array, and batch b is its slice
    [:, b*batch_size : (b+1)*batch_size], so every batch is a stack
    (see ``Batch``) covering each client's data exactly once per epoch; the
    last batch may be smaller.  Each call allocates its own stack, which is
    freed once its batches are dropped.
    """
    sizes = {data.size for data in datasets}
    if len(sizes) != 1 or len(client_ids) != len(datasets):
        raise ConfigError(f"a batch group needs one id per client and equal local sizes, got sizes {sorted(sizes)}")
    n = sizes.pop()
    if n == 0:
        raise ConfigError("cannot batch an empty dataset")
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    first = datasets[0]
    inputs = np.empty((len(datasets), *first.inputs.shape), first.inputs.dtype)
    labels = np.empty((len(datasets), *first.labels.shape), first.labels.dtype)
    for p, (data, client_id) in enumerate(zip(datasets, client_ids)):
        order = rng.shuffle_stream(shuffle_seed, client_id, round_num, epoch).permutation(n)
        # ``order`` is a permutation, so "clip" never clips; unlike the
        # default mode it lets take write into the stack without a temporary.
        np.take(data.inputs, order, axis=0, out=inputs[p], mode="clip")
        np.take(data.labels, order, axis=0, out=labels[p], mode="clip")
    return [
        Batch(inputs[:, start : start + batch_size], labels[:, start : start + batch_size])
        for start in range(0, n, batch_size)
    ]


def train_test_split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded holdout split; the test part stays on the server for validation.

    The split takes over ``dataset``'s buffers: it reorders their rows in
    place, train rows first and test rows after them, each in their original
    order, and returns both parts as views of those buffers.  ``dataset``
    itself holds the reordered rows afterwards.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise ConfigError("test_fraction must lie in [0, 1)")
    if test_fraction == 0.0:
        return dataset, Dataset(dataset.inputs[:0], dataset.labels[:0])
    order = rng.stream("holdout", seed, dataset.size).permutation(dataset.size)
    n_test = int(round(dataset.size * test_fraction))
    n_test = min(max(n_test, 1), dataset.size - 1)
    test_idx = np.sort(order[:n_test])
    train_idx = np.sort(order[n_test:])
    for array in (dataset.inputs, dataset.labels):
        _train_rows_first(array, train_idx, test_idx)
    n_train, inputs, labels = len(train_idx), dataset.inputs, dataset.labels
    return Dataset(inputs[:n_train], labels[:n_train]), Dataset(inputs[n_train:], labels[n_train:])


def _train_rows_first(array: np.ndarray, train_idx: np.ndarray, test_idx: np.ndarray) -> None:
    """Rows ``train_idx`` then rows ``test_idx`` of ``array``, written over ``array``.

    Only the test rows are copied whole.  The train rows move forward a chunk
    at a time; since the sorted ``train_idx[i] >= i``, a chunk reads only rows
    that no earlier chunk has overwritten.
    """
    test = array[test_idx]
    step = max(1, MOVE_CHUNK_BYTES // array[:1].nbytes)
    for start in range(0, len(train_idx), step):
        rows = train_idx[start : start + step]
        array[start : start + len(rows)] = array[rows]
    array[len(train_idx) :] = test


def _read_exact(f, count: int, path: str, offset: int) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IngestionError(
            f"{path}: truncated at byte {offset + len(data)} (wanted {count} bytes from offset {offset})"
        )
    return data


def _load_idx_array(path: str, expected_magic: int) -> np.ndarray:
    with open(path, "rb") as f:
        header = _read_exact(f, 4, path, 0)
        magic = struct.unpack(">I", header)[0]
        if magic != expected_magic:
            raise IngestionError(
                f"{path}: bad magic 0x{magic:08x} at byte 0 (expected 0x{expected_magic:08x})"
            )
        ndim = magic & 0xFF
        dims = []
        for i in range(ndim):
            raw = _read_exact(f, 4, path, 4 + 4 * i)
            dims.append(struct.unpack(">I", raw)[0])
        payload_offset = 4 + 4 * ndim
        count = int(np.prod(dims, dtype=np.int64)) if dims else 0
        payload = _read_exact(f, count, path, payload_offset)
        extra = f.read(1)
        if extra:
            raise IngestionError(f"{path}: trailing bytes at byte {payload_offset + count}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair; pixels are scaled to [0, 1] by /255."""
    images = _load_idx_array(images_path, IDX_IMAGES_MAGIC)
    labels = _load_idx_array(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise IngestionError(
            f"{labels_path}: count mismatch: {labels.shape[0]} labels vs {images.shape[0]} images in {images_path}"
        )
    flat = images.reshape(images.shape[0], -1).astype(np.float64)
    flat /= 255.0
    return Dataset(flat, labels.astype(np.int64))


def load_csv(path: str, label_column: int, has_header: bool = False) -> Dataset:
    """Load a numeric CSV; ``label_column`` indexes the label field."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for lineno, row in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise IngestionError(f"{path}: rows have inconsistent widths")
    if not -width <= label_column < width:
        raise IngestionError(f"{path}: label_column {label_column} out of range for width {width}")
    table = np.asarray(rows, dtype=np.float64)
    label_column %= width
    labels = table[:, label_column].copy()  # a view would keep the whole table alive
    inputs = np.delete(table, label_column, axis=1)
    if inputs.shape[1] == 0:
        raise IngestionError(f"{path}: no feature columns left after removing the label")
    if np.all(np.isfinite(labels) & (labels == np.round(labels))):  # inf would cast to garbage
        labels = labels.astype(np.int64)
    return Dataset(inputs, labels)
