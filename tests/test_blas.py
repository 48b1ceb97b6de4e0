import contextlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from flcore import blas
from flcore.config import parse_config
from flcore.data import Dataset
from flcore.models import Batch, ModelSpec, loss_and_grad, loss_and_outputs, param_count
from flcore.runner import metrics_line, train, validate
from flcore.transport import decode_join_ack, encode_join_ack
from flcore.worker import build_worker

needs_openblas = pytest.mark.skipif(blas.OPENBLAS is None, reason="numpy is not built on OpenBLAS")


@contextlib.contextmanager
def count_set_to(n: int):
    """The process's OpenBLAS count set to n inside, and set back after."""
    set_threads, get_threads = blas.OPENBLAS
    before = get_threads()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)


def test_lookup_finds_numpys_openblas():
    # A renamed entry point or a moved library must fail here, not silently leave BLAS multithreaded.
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in name.lower():
        pytest.skip(f"numpy's BLAS is {name}")
    assert blas.OPENBLAS is not None


def _softmax_kernel(kernel):
    spec = ModelSpec("softmax", 4, 3)
    gen = np.random.default_rng(0)
    kernel(spec, gen.standard_normal(param_count(spec)), Batch(gen.standard_normal((8, 4)), gen.integers(0, 3, 8)))


def _dp_client_round():
    cfg = parse_config(
        {
            "model": {"kind": "softmax", "input_dim": 2, "output_dim": 3},
            "algo": {"kind": "iiadmm", "local_steps": 2, "batch_size": 16, "rounds": 1},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
            "data": {"source": "synthetic-blobs", "n": 80, "input_dim": 2, "classes": 3},
            "run": {"clients": 2, "seed": 5},
        }
    )
    worker = build_worker(cfg, 0)
    worker.handle_join_ack(decode_join_ack(encode_join_ack(cfg)))
    worker.handle_global(1, np.zeros(param_count(cfg.model)))


@needs_openblas
@pytest.mark.parametrize(
    "call",
    [
        lambda: _softmax_kernel(loss_and_grad),
        lambda: _softmax_kernel(loss_and_outputs),
        lambda: _softmax_kernel(lambda spec, params, batch: validate(spec, params, Dataset(batch.inputs, batch.labels))),
        _dp_client_round,
    ],
    ids=["loss_and_grad", "loss_and_outputs", "validate", "dp_client_round"],
)
def test_kernels_leave_openblas_on_one_thread(call):
    # 3, not the default, so that a count set back to what the host had cannot pass for the pin.
    with count_set_to(3):
        call()
        assert blas.OPENBLAS[1]() == 1


@needs_openblas
def test_without_openblas_training_is_unchanged(monkeypatch):
    cfg = parse_config(
        {
            "model": {"kind": "softmax", "input_dim": 2, "output_dim": 3},
            "algo": {"kind": "iiadmm", "rho": 2.0, "zeta": 0.5, "local_steps": 3, "batch_size": 16, "rounds": 4},
            "data": {"source": "synthetic-blobs", "n": 120, "input_dim": 2, "classes": 3, "noise": 0.4},
            "run": {"clients": 4, "seed": 11},
        }
    )
    record = train(cfg)
    # The pin outlives the first run, so raise the count: the run without OpenBLAS must not inherit one thread.
    with count_set_to(2):
        monkeypatch.setattr(blas, "OPENBLAS", None)
        without = train(cfg)
    assert [metrics_line(m) for m in without.metrics] == [metrics_line(m) for m in record.metrics]
    assert without.final_w.tobytes() == record.final_w.tobytes()


# A softmax shape whose products OpenBLAS splits differently under 1 and 2
# threads: without the one-thread pin, this seed's loss differs in its
# last bit, and every seed's logits differ.
_THREAD_PROBE = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from flcore import runner
    from flcore.data import Dataset
    from flcore.models import Batch, ModelSpec, loss_and_grad, loss_and_outputs, param_count

    spec = ModelSpec("softmax", 30_000, 10)
    gen = np.random.default_rng(1)
    inputs, labels = gen.standard_normal((200, 30_000)), gen.integers(0, 10, 200)
    params = 0.01 * gen.standard_normal(param_count(spec))
    logits = []
    runner.loss_and_outputs = lambda *args: logits.append(loss_and_outputs(*args)) or logits[-1]
    print(repr(runner.validate(spec, params, Dataset(inputs, labels))), hashlib.sha256(logits[0][1].tobytes()).hexdigest())
    print(hashlib.sha256(loss_and_grad(spec, params, Batch(inputs, labels))[1].tobytes()).hexdigest())
    """
)


def stdout_by_thread_count(script: str) -> dict[str, list[str]]:
    """The script's stdout lines under OPENBLAS_NUM_THREADS=1 and =2."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < 2:
        pytest.skip("OpenBLAS caps its threads at the core count, so 1 and 2 threads need 2 CPUs")
    src = os.path.dirname(os.path.dirname(blas.__file__))
    runs = {}
    for count in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        runs[count] = out.stdout.splitlines()
    return runs


@pytest.fixture(scope="module")
def by_thread_count():
    return stdout_by_thread_count(_THREAD_PROBE)


def test_evaluation_does_not_depend_on_the_thread_count(by_thread_count):
    assert by_thread_count["1"][0] == by_thread_count["2"][0]


def test_gradient_does_not_depend_on_the_thread_count(by_thread_count):
    assert by_thread_count["1"][1] == by_thread_count["2"][1]


# A whole in-process run at the probe's shape, without and with DP (whose
# clipping takes a dot over all m = 300,010 parameters): every client round and
# evaluation runs on one BLAS thread, so the metrics and final model are the
# same bytes whatever OPENBLAS_NUM_THREADS says.
_TRAIN_PROBE = textwrap.dedent(
    """
    import hashlib
    from flcore.config import parse_config
    from flcore.runner import metrics_line, train

    for privacy in ({"enabled": False}, {"enabled": True, "epsilon_bar": 10, "clip": 1.0}):
        record = train(parse_config({
            "model": {"kind": "softmax", "input_dim": 30_000, "output_dim": 10},
            "algo": {"kind": "iiadmm", "rounds": 2},
            "privacy": privacy,
            "data": {"source": "synthetic-blobs", "n": 200, "input_dim": 30_000, "classes": 10},
            "run": {"clients": 2, "seed": 1},
        }))
        print(hashlib.sha256("\\n".join(map(metrics_line, record.metrics)).encode()).hexdigest())
        print(hashlib.sha256(record.final_w.tobytes()).hexdigest())
    """
)


def test_training_does_not_depend_on_the_thread_count():
    runs = stdout_by_thread_count(_TRAIN_PROBE)
    assert len(runs["1"]) == 4
    assert runs["1"] == runs["2"]
