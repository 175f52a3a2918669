"""Every function perfbench's tracer wraps is still in isodiam under its
traced name, and every per-call quantity it keeps reads the right argument,
so a fold, a rename or a reordered signature cannot break a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from isodiam import regions
from isodiam.geometry import Ball, Space
from isodiam.regions import Symmetrized, symmetrized_depth
from isodiam.rng import substream

from conftest import random_plane

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("layer, target", sorted(_tracer().LAYERS.items()))
def test_traced_layer_resolves(layer, target):
    module, attr = target
    assert module == "isodiam" or module.startswith("isodiam.")
    assert callable(getattr(importlib.import_module(module), attr))


S2 = Space.sphere(2)
BALL = Ball(S2.base_point, 0.8)
REGION = Symmetrized(random_plane(S2, substream(3)), BALL)
A = regions.uniform_in_ball(S2, BALL, substream(4), 30)
B = regions.uniform_in_ball(S2, BALL, substream(5), 12)

#: layer -> calls through the module namespace, each with the info it must record
INFO_CALLS = {
    "regions.contains": [
        (lambda: regions.contains(S2, REGION, A), (1, 30)),
        (lambda: regions.contains(S2, REGION, A[0]), (1, 1)),
        (lambda: regions.contains(S2, region=BALL, x=B), (0, 12)),
    ],
    "regions.uniform_in_ball": [
        (lambda: regions.uniform_in_ball(S2, BALL, substream(6), 40), 40),
        (lambda: regions.uniform_in_ball(S2, BALL, substream(6), size=7), 7),
        (lambda: regions.uniform_in_ball(S2, BALL, substream(6)), 1),
    ],
    "regions.sample": [
        (lambda: regions.sample(S2, REGION, 200.0, substream(7)),
         len(regions.sample(S2, REGION, 200.0, substream(7)))),
    ],
    "regions.pairwise_extremes": [
        (lambda: regions._pairwise_extremes(S2, A), 30 * 29 // 2),
        (lambda: regions._pairwise_extremes(S2, pts=B), 12 * 11 // 2),
    ],
    # the tracer reads hausdorff's a and b by position only
    "regions.hausdorff": [
        (lambda: regions.hausdorff(S2, A, B), 30 * 12),
    ],
}


def test_every_span_info_has_a_call():
    assert sorted(_tracer()._INFO) == sorted(INFO_CALLS)


@pytest.mark.parametrize("layer", sorted(INFO_CALLS))
def test_span_info_reads_its_call(layer):
    tracer = _tracer()
    assert symmetrized_depth(REGION) == 1
    for call, expected in INFO_CALLS[layer]:
        with tracer.Tracer([layer]) as traced:
            call()
        assert [span[4] for span in traced.spans] == [expected]
