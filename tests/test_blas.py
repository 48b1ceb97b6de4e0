import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from flcore import blas
from flcore.config import parse_config
from flcore.runner import metrics_line, train

needs_openblas = pytest.mark.skipif(blas.OPENBLAS is None, reason="numpy is not built on OpenBLAS")


def threads():
    return blas.OPENBLAS[1]()


@pytest.fixture
def three_threads():
    """The count set to 3 for the test, so a restore cannot be mistaken for a reset to the default."""
    set_threads, get_threads = blas.OPENBLAS
    before = get_threads()
    set_threads(3)
    yield
    set_threads(before)


def test_lookup_finds_numpys_openblas():
    # A renamed entry point or a moved library must fail here, not silently leave BLAS multithreaded.
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in name.lower():
        pytest.skip(f"numpy's BLAS is {name}")
    assert blas.OPENBLAS is not None


@needs_openblas
class TestSingleThread:
    def test_one_thread_inside_restored_after(self, three_threads):
        with blas.single_thread():
            assert threads() == 1
        assert threads() == 3

    def test_restored_after_an_exception(self, three_threads):
        with pytest.raises(KeyError):
            with blas.single_thread():
                raise KeyError("inside")
        assert threads() == 3

    def test_nested_scopes_restore_the_outer_count(self, three_threads):
        with blas.single_thread():
            with blas.single_thread():
                assert threads() == 1
            assert threads() == 1
        assert threads() == 3


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
    monkeypatch.setattr(blas, "OPENBLAS", None)
    without = train(cfg)
    assert [metrics_line(m) for m in without.metrics] == [metrics_line(m) for m in record.metrics]
    assert without.final_w.tobytes() == record.final_w.tobytes()


# A softmax shape whose products OpenBLAS splits differently under 1 and 2
# threads: without the single-threaded scope, this seed's loss differs in its
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


@pytest.fixture(scope="module")
def by_thread_count():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < 2:
        pytest.skip("OpenBLAS caps its threads at the core count, so 1 and 2 threads need 2 CPUs")
    src = os.path.dirname(os.path.dirname(blas.__file__))
    runs = {}
    for count in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True)
        runs[count] = out.stdout.splitlines()
    return runs


def test_evaluation_does_not_depend_on_the_thread_count(by_thread_count):
    assert by_thread_count["1"][0] == by_thread_count["2"][0]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: client gradients still run on the host's BLAS thread count, whose split changes the sums",
)
def test_gradient_does_not_depend_on_the_thread_count(by_thread_count):
    assert by_thread_count["1"][1] == by_thread_count["2"][1]
