import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcore import rng
from flcore.config import build_data, parse_config
from flcore.data import (
    MOVE_CHUNK_BYTES,
    PARTITION_SCHEMES,
    Dataset,
    batches,
    deal,
    generate_synthetic,
    load_csv,
    load_idx,
    partition,
    train_test_split,
)
from flcore.errors import ConfigError, IngestionError
from flcore.models import Batch, ModelSpec, loss_and_grad, param_count, predict


class TestSynthetic:
    def test_blobs_linearly_fittable(self):
        # Oracle: direct full-batch gradient descent on a logistic model.
        ds = generate_synthetic("blobs", 200, 2, classes=2, noise=0.1, seed=7)
        spec = ModelSpec("softmax", 2, 2)
        params = np.zeros(param_count(spec))
        batch = Batch(ds.inputs, ds.labels)
        for _ in range(400):
            _, g = loss_and_grad(spec, params, batch)
            params -= 0.5 * g
        assert np.mean(predict(spec, params, ds.inputs) == ds.labels) >= 0.99

    def test_noiseless_regression_recovered_by_normal_equations(self):
        ds = generate_synthetic("regression", 50, 4, noise=0.0, seed=3)
        design = np.hstack([ds.inputs, np.ones((ds.size, 1))])
        solution, *_ = np.linalg.lstsq(design, ds.labels, rcond=None)
        residual = ds.labels - design @ solution
        assert np.max(np.abs(residual)) < 1e-10

    def test_same_seed_bitwise_identical(self):
        a = generate_synthetic("blobs", 64, 3, classes=4, noise=0.2, seed=11)
        b = generate_synthetic("blobs", 64, 3, classes=4, noise=0.2, seed=11)
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)
        c = generate_synthetic("blobs", 64, 3, classes=4, noise=0.2, seed=12)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_blob_centres_separated(self):
        noise = 0.7
        ds = generate_synthetic("blobs", 90, 2, classes=3, noise=noise, seed=0)
        centres = np.array([ds.inputs[ds.labels == k].mean(axis=0) for k in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centres[i] - centres[j]) >= 4 * noise * 0.8

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            generate_synthetic("blobs", 2, 2, classes=3, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic("spiral", 10, 2, seed=0)


class TestPartition:
    def test_equal_split_even(self):
        ds = generate_synthetic("blobs", 8, 2, classes=2, seed=0)
        assert [len(idx) for idx in partition(ds, 4, "equal")] == [2, 2, 2, 2]

    def test_equal_split_remainder_to_first_clients(self):
        ds = generate_synthetic("blobs", 10, 2, classes=2, seed=0)
        assert [len(idx) for idx in partition(ds, 4, "equal")] == [3, 3, 2, 2]

    def test_disjoint_and_covering(self):
        ds = generate_synthetic("blobs", 37, 2, classes=2, seed=1)
        for scheme in ("equal", "iid-shuffle"):
            shards = partition(ds, 5, scheme, seed=9)
            merged = np.sort(np.concatenate(shards))
            assert np.array_equal(merged, np.arange(37))

    def test_label_shards_skew(self):
        # 20 samples, 2 classes, shards of 5: every shard is single-label, so
        # each client sees at most 2 distinct labels.
        inputs = np.zeros((20, 2))
        labels = np.array([0] * 10 + [1] * 10, dtype=np.int64)
        ds = Dataset(inputs, labels)
        shards = partition(ds, 2, "label-shards", seed=4, shards_per_client=2)
        for idx in shards:
            assert len(np.unique(labels[idx])) <= 2
            assert len(idx) == 10
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(20))

    def test_label_shards_is_seeded(self):
        ds = generate_synthetic("blobs", 40, 2, classes=4, noise=0.1, seed=2)
        a = partition(ds, 4, "label-shards", seed=1)
        b = partition(ds, 4, "label-shards", seed=1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_many_clients(self):
        ds = generate_synthetic("blobs", 4, 2, classes=2, seed=0)
        with pytest.raises(ConfigError):
            partition(ds, 5, "equal")


def rows(dataset: Dataset, indices) -> Dataset:
    return Dataset(dataset.inputs[indices], dataset.labels[indices])


class TestBatches:
    @pytest.fixture
    def dataset(self):
        return generate_synthetic("blobs", 40, 2, classes=2, noise=0.3, seed=5)

    def test_sizes_with_remainder(self, dataset):
        got = batches([rows(dataset, np.arange(5))], batch_size=2, shuffle_seed=0, client_ids=[0], round_num=1, epoch=1)
        assert [b.n for b in got] == [2, 2, 1]

    def test_full_batch_when_batch_size_covers(self, dataset):
        got = batches([dataset], batch_size=64, shuffle_seed=0, client_ids=[0], round_num=1, epoch=1)
        assert len(got) == 1 and got[0].n == 40

    def test_same_key_same_order(self, dataset):
        a = batches([dataset], 8, 3, [2], 7, 1)
        b = batches([dataset], 8, 3, [2], 7, 1)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)
        c = batches([dataset], 8, 3, [2], 7, 2)
        assert not all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, c))

    def test_group_rows_are_each_clients_own_batches(self, dataset):
        parts = [rows(dataset, np.arange(0, 40, 2)), rows(dataset, np.arange(1, 40, 2))]
        group = batches(parts, 6, 4, [3, 5], 2, 1)
        assert [b.inputs.shape for b in group] == [(2, 6, 2)] * 3 + [(2, 2, 2)]
        for p, (part, client_id) in enumerate(zip(parts, [3, 5])):
            alone = batches([part], 6, 4, [client_id], 2, 1)
            for g, a in zip(group, alone):
                assert np.array_equal(g.inputs[p], a.inputs[0]) and np.array_equal(g.labels[p], a.labels[0])

    def test_without_buffer_batches_are_new_arrays(self, dataset):
        a, b = batches([dataset], 8, 3, [2], 7, 1), batches([dataset], 8, 3, [2], 7, 1)
        for x, y in zip(a, b):
            assert not np.shares_memory(x.inputs, y.inputs) and not np.shares_memory(x.labels, y.labels)
            assert not np.shares_memory(x.inputs, dataset.inputs)

    def test_group_needs_equal_sizes(self, dataset):
        with pytest.raises(ConfigError):
            batches([rows(dataset, np.arange(5)), rows(dataset, np.arange(6))], 2, 0, [0, 1], 1, 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 50), batch_size=st.integers(1, 16), seed=st.integers(0, 99))
    def test_epoch_covers_indices_exactly_once(self, n, batch_size, seed):
        ds = Dataset(np.arange(60, dtype=float).reshape(60, 1), np.zeros(60))
        idx = np.arange(n)
        got = batches([rows(ds, idx)], batch_size, seed, [0], 1, 1)
        seen = np.sort(np.concatenate([b.inputs[0, :, 0] for b in got]))
        assert np.array_equal(seen, np.arange(n, dtype=float))


class TestHoldout:
    def test_split_fractions(self):
        ds = generate_synthetic("blobs", 100, 2, classes=2, seed=0)
        train, test = train_test_split(ds, 0.2, seed=0)
        assert train.size == 80 and test.size == 20

    def test_zero_fraction(self):
        ds = generate_synthetic("blobs", 10, 2, classes=2, seed=0)
        train, test = train_test_split(ds, 0.0, seed=0)
        assert train.size == 10 and test.size == 0


def data_config(source, scheme, test_fraction, n=45, input_dim=3):
    model = {"kind": "softmax", "input_dim": input_dim, "output_dim": 3}
    if source == "synthetic-regression":
        model = {"kind": "linear-regression", "input_dim": input_dim, "output_dim": 1}
    return parse_config({
        "model": model,
        "data": {"source": source, "n": n, "input_dim": input_dim, "classes": 3, "partition": scheme,
                 "test_fraction": test_fraction},
        "run": {"clients": 4, "seed": 3},
    })


def fancy_index_build(cfg):
    """(train, test, client views) as fancy-index copies: the reference for build_data's in-place split."""
    d = cfg.data
    kind = d.source.removeprefix("synthetic-")
    full = generate_synthetic(kind, d.n, d.input_dim, d.classes if kind == "blobs" else 1, d.noise, cfg.data_seed)
    train_idx, test_idx = np.arange(d.n), np.arange(0)
    if d.test_fraction:
        order = rng.stream("holdout", cfg.data_seed, d.n).permutation(d.n)
        n_test = min(max(int(round(d.n * d.test_fraction)), 1), d.n - 1)
        train_idx, test_idx = np.sort(order[n_test:]), np.sort(order[:n_test])
    train = Dataset(full.inputs[train_idx], full.labels[train_idx])
    test = Dataset(full.inputs[test_idx], full.labels[test_idx])
    shards = partition(train, cfg.clients, d.partition, cfg.data_seed, d.shards_per_client)
    return train, test, [rows(train, idx) for idx in shards]


def same_bits(a: Dataset, b: Dataset) -> bool:
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((a.inputs, b.inputs), (a.labels, b.labels))
    )


class TestHeldOnce:
    @pytest.mark.parametrize("test_fraction", [0.0, 0.2])
    @pytest.mark.parametrize("source", ["synthetic-regression", "synthetic-blobs"])
    @pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
    def test_build_matches_fancy_index_construction(self, scheme, source, test_fraction):
        cfg = data_config(source, scheme, test_fraction)
        train, test, shards = build_data(cfg)
        ref_train, ref_test, ref_views = fancy_index_build(cfg)
        assert same_bits(train, ref_train) and same_bits(test, ref_test)
        views = deal(train, shards)
        assert all(same_bits(view, ref) for view, ref in zip(views, ref_views, strict=True))
        assert all(np.shares_memory(view.inputs, train.inputs) for view in views)
        assert all(np.shares_memory(view.labels, train.labels) for view in views)
        assert same_bits(test, ref_test)  # the deal moves train rows only

    def test_deal_writes_clients_in_turn_keeping_each_clients_order(self):
        ds = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10))
        parts = deal(ds, [np.array([1, 4, 7]), np.array([0, 2, 3, 9]), np.array([5, 6, 8])])
        assert [part.labels.tolist() for part in parts] == [[1, 4, 7], [0, 2, 3, 9], [5, 6, 8]]
        assert all(np.array_equal(part.inputs[:, 0], 2 * part.labels) for part in parts)
        assert ds.labels.tolist() == [1, 4, 7, 0, 2, 3, 9, 5, 6, 8]
        assert all(np.shares_memory(part.inputs, ds.inputs) for part in parts)

    def test_deal_of_an_equal_partition_writes_nothing(self):
        ds = generate_synthetic("blobs", 10, 2, classes=2, seed=0)
        ds.inputs.flags.writeable = ds.labels.flags.writeable = False  # a write would raise
        parts = deal(ds, partition(ds, 3, "equal"))
        assert [part.size for part in parts] == [4, 3, 3]
        assert np.array_equal(np.concatenate([part.inputs for part in parts]), ds.inputs)

    def test_build_peak_is_one_dataset_plus_its_test_rows(self):
        # A wide regression set: at most the generated set, a copy of its
        # test rows and one chunk of moved train rows are alive at once.
        n, d = 80, 20_000
        cfg = data_config("synthetic-regression", "equal", 0.2, n=n, input_dim=d)
        generated = n * (d + 1) * 8
        test_rows = 16 * (d + 1) * 8
        build_data(data_config("synthetic-regression", "equal", 0.2))  # first-call imports and caches
        tracemalloc.start()
        try:
            train, test, _ = build_data(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (train.size, test.size) == (64, 16)
        assert peak <= generated + test_rows + MOVE_CHUNK_BYTES, f"peak {peak / 2**20:.2f} MiB"


def write_idx_images(path, arrays: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">I", 0x00000803))
        for dim in arrays.shape:
            f.write(struct.pack(">I", dim))
        f.write(arrays.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">I", 0x00000801))
        f.write(struct.pack(">I", labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


class TestIdx:
    def test_golden_header(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        write_idx_images(tmp_path / "img", images)
        write_idx_labels(tmp_path / "lab", np.array([1, 0]))
        ds = load_idx(str(tmp_path / "img"), str(tmp_path / "lab"))
        assert ds.size == 2 and ds.input_dim == 4
        assert ds.inputs.max() <= 1.0
        assert ds.inputs[1, 3] == pytest.approx(7 / 255)

    def test_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "img", np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab", np.array([1, 0, 1]))
        with pytest.raises(IngestionError, match="mismatch"):
            load_idx(str(tmp_path / "img"), str(tmp_path / "lab"))

    def test_bad_magic_reports_offset(self, tmp_path):
        (tmp_path / "img").write_bytes(struct.pack(">I", 0xDEADBEEF))
        write_idx_labels(tmp_path / "lab", np.array([0]))
        with pytest.raises(IngestionError, match="byte 0"):
            load_idx(str(tmp_path / "img"), str(tmp_path / "lab"))

    def test_truncated_payload(self, tmp_path):
        buf = struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5
        (tmp_path / "img").write_bytes(buf)
        write_idx_labels(tmp_path / "lab", np.array([0, 1]))
        with pytest.raises(IngestionError, match="truncated"):
            load_idx(str(tmp_path / "img"), str(tmp_path / "lab"))


class TestCsv:
    def test_single_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0,0\n")
        ds = load_csv(str(p), label_column=2)
        assert ds.inputs.tolist() == [[1.0, 2.0]]
        assert ds.labels.tolist() == [0]
        assert ds.labels.dtype == np.int64

    def test_header_flag(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,y\n1,2,0\n3,4,1\n")
        ds = load_csv(str(p), label_column=-1, has_header=True)
        assert ds.size == 2

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,two,0\n")
        with pytest.raises(IngestionError, match=":1"):
            load_csv(str(p), label_column=2)
