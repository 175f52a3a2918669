"""Spans around isodiam's functions, recorded from outside the package.

A Tracer replaces each named function in every ``isodiam`` module namespace
that holds it: ``symmetrize``, ``experiments``, ``convexity`` and ``cli``
import by name, so patching only the defining module would miss their calls.
Spans (name, start, end, parent) stay in memory until ``write`` is called.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: layer name -> (module, attribute); the layer names are the benchmark's
LAYERS = {
    "regions.contains": ("isodiam.regions", "contains"),
    "regions.uniform_in_ball": ("isodiam.regions", "uniform_in_ball"),
    "regions.sample": ("isodiam.regions", "sample"),
    "regions.volume_estimate": ("isodiam.regions", "volume_estimate"),
    "regions.pairwise_extremes": ("isodiam.regions", "_pairwise_extremes"),
    "regions.hausdorff": ("isodiam.regions", "hausdorff"),
    "regions.bounding_ball": ("isodiam.regions", "bounding_ball"),
    "geometry.ball_volume": ("isodiam.geometry", "ball_volume"),
    "geometry.distance": ("isodiam.geometry", "distance"),
    "geometry.random_unit_tangent": ("isodiam.geometry", "random_unit_tangent"),
    "geometry.reflect": ("isodiam.geometry", "reflect"),
    "symmetrize.flow_step": ("isodiam.symmetrize", "flow_step"),
    "symmetrize.two_point_symmetrize": ("isodiam.symmetrize", "two_point_symmetrize"),
    "symmetrize.check_counting_identity": ("isodiam.symmetrize", "_check_counting_identity"),
    "symmetrize.rebase_approximation": ("isodiam.symmetrize", "_rebase_approximation"),
    "symmetrize.choose_hyperplane": ("isodiam.symmetrize", "choose_hyperplane"),
    "convexity.min_norm_point": ("isodiam.convexity", "min_norm_point"),
    "convexity.hull_diameter_check": ("isodiam.convexity", "hull_diameter_check"),
    "convexity.hemisphere_center": ("isodiam.convexity", "hemisphere_center"),
    "convexity.ball_convexity_probe": ("isodiam.convexity", "ball_convexity_probe"),
    "experiments.random_admissible_region": ("isodiam.experiments", "random_admissible_region"),
    "experiments.greedy_maximal": ("isodiam.experiments", "greedy_maximal"),
    "experiments.verify_isodiametric": ("isodiam.experiments", "verify_isodiametric"),
    "regionio.load_region": ("isodiam.regionio", "load_region"),
    "regionio.region_digest": ("isodiam.regionio", "region_digest"),
    "rng.substream": ("isodiam.rng", "substream"),
    "cli.main": ("isodiam.cli", "main"),
}

#: deepest Symmetrized chain with a bucket of its own; deeper chains count here
MAX_DEPTH_BUCKET = 9


def _contains_info(args, kwargs, result):
    from isodiam.regions import symmetrized_depth
    x = args[2] if len(args) > 2 else kwargs["x"]
    region = args[1] if len(args) > 1 else kwargs["region"]
    return symmetrized_depth(region), (len(x) if getattr(x, "ndim", 1) == 2 else 1)


def _uniform_info(args, kwargs, result):
    size = args[3] if len(args) > 3 else kwargs.get("size")
    return 1 if size is None else int(size)


def _pairwise_info(args, kwargs, result):
    n = len(args[1] if len(args) > 1 else kwargs["pts"])
    return n * (n - 1) // 2


def _hausdorff_info(args, kwargs, result):
    return len(args[1]) * len(args[2])


#: per-call quantities kept on the span, computed after the span has ended
_INFO = {
    "regions.contains": _contains_info,
    "regions.uniform_in_ball": _uniform_info,
    "regions.sample": lambda args, kwargs, result: len(result),
    "regions.pairwise_extremes": _pairwise_info,
    "regions.hausdorff": _hausdorff_info,
}


class Tracer:
    """Wraps the named layers while installed; each call appends one span.

    A span is the list [name, start, end, parent index, info, outermost],
    where ``outermost`` is False inside a recursive call of the same layer.
    """

    def __init__(self, names):
        self.names = list(names)
        self.spans: list = []
        self._stack: list = []
        self._active = dict.fromkeys(self.names, 0)
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        info = _INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            active[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, active[name] == 1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[name] -= 1
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name in self.names:
            module, attr = LAYERS[name]
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "isodiam" and not mod_name.startswith("isodiam."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, original))

    def remove(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def write(self, path) -> None:
        """One JSON object per span, in call order; times from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, _, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer totals of one traced pass, keyed by benchmark metric name.

    ``F.s`` sums the outermost spans of F, so recursion is not counted twice;
    ``F.self_s`` is F's time minus the time of its direct child spans.
    """
    out = {}
    for name in LAYERS:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    depth_s = [0.0] * (MAX_DEPTH_BUCKET + 1)
    contains_points = uniform_points = kept = proposals = 0
    pairwise_pairs = hausdorff_pairs = 0
    for name, start, end, parent, info, outermost in spans:
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur
        if outermost:
            out[f"{name}.s"] += dur
        if parent >= 0:
            out[f"{spans[parent][0]}.self_s"] -= dur
        if name == "regions.contains":
            depth_s[min(info[0], MAX_DEPTH_BUCKET)] += dur
            contains_points += info[1]
            if parent >= 0 and spans[parent][0] == "regions.sample":
                proposals += info[1]
        elif name == "regions.uniform_in_ball":
            uniform_points += info
        elif name == "regions.sample":
            kept += info
        elif name == "regions.pairwise_extremes":
            pairwise_pairs += info
        elif name == "regions.hausdorff":
            hausdorff_pairs += info
    out["regions.contains.points"] = contains_points
    for d, s in enumerate(depth_s):
        out[f"regions.contains.d{d}_s"] = s
    out["regions.uniform_in_ball.points"] = uniform_points
    out["regions.sample.acceptance"] = kept / proposals if proposals else 0.0
    out["regions.pairwise_extremes.pairs"] = pairwise_pairs
    out["regions.hausdorff.pairs"] = hausdorff_pairs
    return out
