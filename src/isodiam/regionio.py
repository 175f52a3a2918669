"""Region description documents: a JSON tree that round-trips losslessly.

Node kinds are "ball", "union", "intersection", "difference" and
"symmetrized"; coordinates are ambient.  The top-level document carries the
space alongside the tree so files are self-contained:

    {"space": {"curvature": 1, "dim": 2}, "region": {"kind": "ball", ...}}

Euclidean symmetrized nodes carry an extra "offset" field (the hyperplane is
<x, normal> = offset); it defaults to 0 and is omitted on the curved spaces.
Parsing checks each node against the space as it builds it, so every error
names the path of the bad node, e.g. ``region.children[1].b``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .geometry import SPHERICAL, Ball, Hyperplane, Space, validate_ball, validate_hyperplane
from .regions import Difference, Intersection, Symmetrized, Union, _real


class RegionFormatError(ValueError):
    """Malformed or invalid region document; the message names the element."""


def _plane_fields(plane: Hyperplane) -> dict:
    out = {"normal": [float(v) for v in plane.normal], "orientation": int(plane.orientation)}
    if plane.offset != 0.0:
        out["offset"] = float(plane.offset)
    return out


def region_to_dict(region) -> dict:
    if isinstance(region, Ball):
        return {"kind": "ball", "center": [float(v) for v in region.center],
                "radius": float(region.radius)}
    if isinstance(region, Union):
        return {"kind": "union", "children": [region_to_dict(c) for c in region.children]}
    if isinstance(region, Intersection):
        return {"kind": "intersection", "children": [region_to_dict(c) for c in region.children]}
    if isinstance(region, Difference):
        return {"kind": "difference", "a": region_to_dict(region.a), "b": region_to_dict(region.b)}
    if isinstance(region, Symmetrized):
        return {"kind": "symmetrized", **_plane_fields(region.plane),
                "inner": region_to_dict(region.inner)}
    raise RegionFormatError(f"unknown region node {type(region).__name__}")


def _need(node: dict, key: str):
    if key not in node:
        raise ValueError(f"missing required field '{key}'")
    return node[key]


_KIND_NAMES = {float: "a number", int: "an integer", np.ndarray: "a list of numbers"}


def _field(node: dict, key: str, kind, default=None):
    """node[key] as a float, an int or a 1-D float array, from real numbers
    only (no strings, no booleans); errors name the field."""
    value = _need(node, key) if default is None else node.get(key, default)
    try:
        if kind is np.ndarray:
            if isinstance(value, list) and all(map(_real, value)):
                return np.array(value, dtype=float)
        elif _real(value) and (kind is float or int(value) == value):
            return kind(value)
    except (ValueError, OverflowError):  # int(nan), int(inf), an integer past 1e308
        pass
    raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _plane_from(space: Space, node: dict) -> Hyperplane:
    plane = Hyperplane(_field(node, "normal", np.ndarray), _field(node, "orientation", int),
                       _field(node, "offset", float, default=0.0))
    validate_hyperplane(space, plane)
    return plane


def _ball_from(space: Space, node: dict) -> Ball:
    ball = Ball(_field(node, "center", np.ndarray), _field(node, "radius", float))
    validate_ball(space, ball)
    if space.curvature == SPHERICAL and ball.radius >= math.pi:
        raise ValueError(f"spherical region balls must have radius < pi, got {ball.radius}")
    return ball


def region_from_dict(space: Space, node: dict, path: str = "region"):
    """Build a region tree from its document and check every node against the space.

    One walk does both.  Any error is a RegionFormatError whose message
    begins with the path of the bad node, e.g. ``region.children[1].b: ...``.
    """
    try:
        if not isinstance(node, dict):
            raise ValueError(f"expected an object, got {type(node).__name__}")
        kind = _need(node, "kind")
        if kind == "ball":
            return _ball_from(space, node)
        if kind in ("union", "intersection"):
            children = _need(node, "children")
            if not isinstance(children, list) or not children:
                raise ValueError(f"'{kind}' needs a nonempty children list")
            parsed = tuple(region_from_dict(space, c, f"{path}.children[{i}]")
                           for i, c in enumerate(children))
            return Union(parsed) if kind == "union" else Intersection(parsed)
        if kind == "difference":
            return Difference(region_from_dict(space, _need(node, "a"), f"{path}.a"),
                              region_from_dict(space, _need(node, "b"), f"{path}.b"))
        if kind == "symmetrized":
            plane = _plane_from(space, node)
            return Symmetrized(plane, region_from_dict(space, _need(node, "inner"),
                                                       f"{path}.inner"))
        raise ValueError(f"unknown node kind '{kind}'")
    except RegionFormatError:
        raise
    except ValueError as exc:
        raise RegionFormatError(f"{path}: {exc}") from exc


def document_to_space_region(doc: dict) -> tuple[Space, object]:
    if not isinstance(doc, dict) or "space" not in doc or "region" not in doc:
        raise RegionFormatError("document must carry 'space' and 'region' members")
    sp = doc["space"]
    try:
        if not isinstance(sp, dict):
            raise ValueError(f"expected an object, got {type(sp).__name__}")
        space = Space(_field(sp, "curvature", int), _field(sp, "dim", int))
    except ValueError as exc:
        raise RegionFormatError(f"space: {exc}") from exc
    return space, region_from_dict(space, doc["region"])


def write_json(path, doc) -> None:
    """Write doc as JSON with sorted keys, indented by 2, and a closing
    newline: the layout of every JSON file the package writes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_region(path, space: Space, region) -> None:
    write_json(path, {"space": {"curvature": space.curvature, "dim": space.dim},
                      "region": region_to_dict(region)})


def load_region(path) -> tuple[Space, object]:
    """Parse a region document; errors name the offending element."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RegionFormatError(f"{path}: not valid JSON ({exc})") from exc
    return document_to_space_region(doc)


def region_digest(region) -> str:
    """Stable short digest of the region structure, for report provenance."""
    blob = json.dumps(region_to_dict(region), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
