"""The benchmark's tracer must still find every name it wraps.

``flbench/tracing.py`` replaces flcore names at the place each is bound.  A
refactor that moves or renames one would leave that layer untimed without any
error, so this checks the bindings on every tier-1 run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from flcore.config import parse_config
from flcore.runner import train

TRACING = Path(__file__).resolve().parents[1] / "flbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("flbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_bound_at_its_owner():
    targets = load_tracing().patch_targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets if attr not in owner.__dict__]
    assert missing == []


# Spans per kind over the config below: the client's local update, its
# epoch batches and the server step each have their own names.
KIND_SPANS = {
    "fedavg": {"algorithms.fedavg_local": 2, "worker.batches": 4, "runner.fedavg_global": 2},
    "iiadmm": {"algorithms.iiadmm_local": 2, "worker.batches": 2, "runner.dual_update": 8, "runner.iiadmm_global": 2},
    "iceadmm": {"algorithms.iceadmm_local": 8, "worker.batches": 0, "runner.iceadmm_global": 2},
}


@pytest.mark.parametrize("kind", sorted(KIND_SPANS))
def test_tracer_sees_the_stacked_kernel(kind):
    # 4 clients of 30 rows form one group; 4 batches of 8 per epoch, 2 local
    # epochs and 2 rounds make 16 kernel dispatches, one per stacked step.
    # ICEADMM runs 4 groups of one: 4 clients x 2 full-batch steps x 2 rounds.
    cfg = parse_config(
        {
            "model": {"kind": "mlp1", "input_dim": 2, "output_dim": 3, "hidden_dim": 4},
            "algo": {"kind": kind, "rho": 2.0, "zeta": 0.5, "local_steps": 2, "batch_size": 8, "rounds": 2},
            "privacy": {"enabled": True, "epsilon_bar": 10, "clip": 1.0},
            "data": {"source": "synthetic-blobs", "n": 150, "input_dim": 2, "classes": 3},
            "run": {"clients": 4, "seed": 1},
        }
    )
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        train(cfg)
    finally:
        tracer.uninstall()
    calls = Counter(span[2] for span in tracer.take())
    assert calls["worker.loss_and_grad"] == 16
    assert calls["algorithms.clip_gradient"] == 16
    assert calls["worker.perturb_output"] == 8  # 4 clients x 2 rounds
    assert {name: calls[name] for name in KIND_SPANS[kind]} == KIND_SPANS[kind]
