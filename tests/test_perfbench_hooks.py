"""The benchmark's per-layer hooks name functions that the package still has."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [target for target, _ in tracer.HOOKS]


@pytest.mark.parametrize("target", _hooks())
def test_hook_target_resolves_to_a_callable(target):
    # The tracer hooks a method on its own class only, and a missing hook
    # silently drops the metrics that read it.
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(f"ness_sdp.{module_name}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        found = vars(getattr(module, owner_name)).get(method)
    else:
        found = getattr(module, attr, None)
    assert callable(found), f"{target} does not resolve to a callable"
