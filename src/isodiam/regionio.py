"""Region description documents: a JSON tree that round-trips losslessly.

Node kinds are "ball", "halfspace", "union", "intersection", "difference" and
"symmetrized"; coordinates are ambient.  The top-level document carries the
space alongside the tree so files are self-contained:

    {"space": {"curvature": 1, "dim": 2}, "region": {"kind": "ball", ...}}

Euclidean halfspace/symmetrized nodes carry an extra "offset" field (the
hyperplane is <x, normal> = offset); it defaults to 0 and is omitted on the
curved spaces.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .geometry import Ball, Hyperplane, Space
from .regions import Difference, HalfSpace, Intersection, Symmetrized, Union, validate_region


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
    if isinstance(region, HalfSpace):
        return {"kind": "halfspace", **_plane_fields(region.plane)}
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


def _need(node: dict, key: str, path: str):
    if key not in node:
        raise RegionFormatError(f"{path}: missing required field '{key}'")
    return node[key]


_KIND_NAMES = {float: "a number", int: "an integer", np.ndarray: "a list of numbers"}


def _field(node: dict, key: str, path: str, kind, default=None):
    """node[key] as a float, an int or a float array; errors name the path and field."""
    value = _need(node, key, path) if default is None else node.get(key, default)
    try:
        out = np.asarray(value, dtype=float) if kind is np.ndarray else kind(value)
        if kind is not int or out == value:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise RegionFormatError(f"{path}: {key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _plane_from(node: dict, path: str) -> Hyperplane:
    normal = _field(node, "normal", path, np.ndarray)
    orientation = _field(node, "orientation", path, int)
    offset = _field(node, "offset", path, float, default=0.0)
    if orientation not in (-1, 1):
        raise RegionFormatError(f"{path}: orientation must be +1 or -1, got {orientation}")
    return Hyperplane(normal, orientation, offset)


def region_from_dict(node: dict, path: str = "region"):
    if not isinstance(node, dict):
        raise RegionFormatError(f"{path}: expected an object, got {type(node).__name__}")
    kind = _need(node, "kind", path)
    if kind == "ball":
        radius = _field(node, "radius", path, float)
        if radius <= 0.0:
            raise RegionFormatError(f"{path}: ball radius must be positive, got {radius}")
        return Ball(_field(node, "center", path, np.ndarray), radius)
    if kind == "halfspace":
        return HalfSpace(_plane_from(node, path))
    if kind in ("union", "intersection"):
        children = _need(node, "children", path)
        if not isinstance(children, list) or not children:
            raise RegionFormatError(f"{path}: '{kind}' needs a nonempty children list")
        parsed = tuple(region_from_dict(c, f"{path}.children[{i}]") for i, c in enumerate(children))
        return Union(parsed) if kind == "union" else Intersection(parsed)
    if kind == "difference":
        return Difference(region_from_dict(_need(node, "a", path), f"{path}.a"),
                          region_from_dict(_need(node, "b", path), f"{path}.b"))
    if kind == "symmetrized":
        plane = _plane_from(node, path)
        return Symmetrized(plane, region_from_dict(_need(node, "inner", path), f"{path}.inner"))
    raise RegionFormatError(f"{path}: unknown node kind '{kind}'")


def document_to_space_region(doc: dict) -> tuple[Space, object]:
    if "space" not in doc or "region" not in doc:
        raise RegionFormatError("document must carry 'space' and 'region' members")
    sp = doc["space"]
    try:
        space = Space(int(sp["curvature"]), int(sp["dim"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise RegionFormatError(f"space: {exc}") from exc
    region = region_from_dict(doc["region"])
    try:
        validate_region(space, region)
    except ValueError as exc:
        raise RegionFormatError(f"region: {exc}") from exc
    return space, region


def save_region(path, space: Space, region) -> None:
    doc = {"space": {"curvature": space.curvature, "dim": space.dim},
           "region": region_to_dict(region)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def region_equal(a, b) -> bool:
    """Structural equality of two region trees (exact coordinates)."""
    return region_to_dict(a) == region_to_dict(b)
