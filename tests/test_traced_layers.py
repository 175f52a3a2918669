"""Every function perfbench's tracer wraps is still in isodiam under its
traced name, so a fold or a rename cannot break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("layer, target", sorted(_layers().items()))
def test_traced_layer_resolves(layer, target):
    module, attr = target
    assert module == "isodiam" or module.startswith("isodiam.")
    assert callable(getattr(importlib.import_module(module), attr))
