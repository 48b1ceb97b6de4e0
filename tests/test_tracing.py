"""The benchmark's tracer must still find every name it wraps.

``flbench/tracing.py`` replaces flcore names at the place each is bound.  A
refactor that moves or renames one would leave that layer untimed without any
error, so this checks the bindings on every tier-1 run.
"""

import importlib.util
from pathlib import Path

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
