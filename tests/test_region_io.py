import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodiam.geometry import Ball, Hyperplane, Space
from isodiam.regionio import (
    RegionFormatError,
    document_to_space_region,
    load_region,
    region_digest,
    region_from_dict,
    region_to_dict,
    save_region,
)
from isodiam.regions import (
    Difference,
    HalfSpace,
    Intersection,
    Symmetrized,
    Union,
    bounding_ball,
    symmetrized_depth,
    uniform_in_ball,
)
from isodiam.rng import substream

from conftest import random_plane

S2 = Space.sphere(2)
E2 = Space.euclidean(2)
H2 = Space.hyperbolic(2)
E = np.array([0.0, 0.0, 1.0])
SPACES = {"R2": E2, "S2": S2, "H2": H2}


def nested_region():
    h = Hyperplane(np.array([1.0, 0.2, 0.0]), -1)
    return Symmetrized(h, Union((
        Ball(E, 0.5),
        Difference(Ball(E, 0.75), Ball(np.array([0.0, math.sin(0.4), math.cos(0.4)]), 0.2)),
        Intersection((Ball(E, 0.9), Ball(E, 0.8))),
    )))


class TestRoundTrip:
    def test_ball_document(self, tmp_path):
        path = tmp_path / "ball.json"
        save_region(path, S2, Ball(E, 0.5))
        space, region = load_region(path)
        assert space == S2
        assert region_to_dict(region) == region_to_dict(Ball(E, 0.5))

    def test_nested_document(self, tmp_path):
        path = tmp_path / "nested.json"
        original = nested_region()
        save_region(path, S2, original)
        _, region = load_region(path)
        assert region_to_dict(region) == region_to_dict(original)
        # lossless floats: digests agree exactly
        assert region_digest(region) == region_digest(original)

    def test_awkward_floats_survive(self, tmp_path):
        path = tmp_path / "f.json"
        r = Ball(np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5)]), 0.1 + 2e-17)
        save_region(path, S2, r)
        _, back = load_region(path)
        assert back.radius == r.radius
        assert np.array_equal(back.center, r.center)

    def test_euclidean_offset_round_trip(self, tmp_path):
        path = tmp_path / "e.json"
        region = Intersection((
            Ball(np.zeros(2), 2.0),
            HalfSpace(Hyperplane(np.array([1.0, 0.0]), 1, offset=0.25)),
        ))
        save_region(path, E2, region)
        _, back = load_region(path)
        assert region_to_dict(back) == region_to_dict(region)
        assert back.children[1].plane.offset == 0.25

    def test_symmetrized_layer_preserved(self, tmp_path):
        path = tmp_path / "s.json"
        save_region(path, S2, nested_region())
        _, region = load_region(path)
        assert isinstance(region, Symmetrized)
        assert isinstance(region.inner, Union)


class TestValidation:
    def test_negative_radius_named(self):
        with pytest.raises(RegionFormatError, match="radius"):
            region_from_dict(S2, {"kind": "ball", "center": [0, 0, 1], "radius": -0.5})

    def test_missing_field_named(self):
        with pytest.raises(RegionFormatError, match="missing required field"):
            region_from_dict(S2, {"kind": "ball", "center": [0, 0, 1]})

    def test_unknown_kind_named(self):
        with pytest.raises(RegionFormatError, match="unknown node kind"):
            region_from_dict(S2, {"kind": "torus"})

    def test_nested_error_path(self):
        doc = {"kind": "union", "children": [
            {"kind": "ball", "center": [0, 0, 1], "radius": 0.5},
            {"kind": "ball", "center": [0, 0, 1], "radius": -1.0},
        ]}
        with pytest.raises(RegionFormatError, match=r"children\[1\]"):
            region_from_dict(S2, doc)

    def test_hyperbolic_normal_signature_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"space": {"curvature": -1, "dim": 2},
               "region": {"kind": "halfspace", "normal": [0.0, 0.0, 1.0], "orientation": 1}}
        path.write_text(json.dumps(doc))
        with pytest.raises(RegionFormatError, match="B\\(p, p\\)"):
            load_region(path)

    def test_spherical_region_ball_strictly_below_pi(self, tmp_path):
        path = tmp_path / "full.json"
        doc = {"space": {"curvature": 1, "dim": 2},
               "region": {"kind": "ball", "center": [0.0, 0.0, 1.0], "radius": math.pi}}
        path.write_text(json.dumps(doc))
        with pytest.raises(RegionFormatError, match="radius"):
            load_region(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(RegionFormatError, match="not valid JSON"):
            load_region(path)

    @pytest.mark.parametrize("doc", [
        5,
        [{"kind": "ball", "center": [0, 0, 1], "radius": 1.0}],
        {"space": {"curvature": 1, "dim": math.inf},
         "region": {"kind": "ball", "center": [0, 0, 1], "radius": 1.0}},
    ], ids=["number", "list", "infinite-dim"])
    def test_malformed_document_rejected(self, tmp_path, doc):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RegionFormatError):
            load_region(path)

    @pytest.mark.parametrize("space, message", [
        ({"curvature": 1, "dim": "2"}, "space: dim must be an integer, got '2'"),
        ({"curvature": 1, "dim": 2.5}, "space: dim must be an integer, got 2.5"),
        ({"dim": 2}, "space: missing required field 'curvature'"),
        (5, "space: expected an object, got int"),
    ], ids=["string-dim", "fractional-dim", "no-curvature", "number"])
    def test_space_fields_must_be_integers(self, space, message):
        doc = {"space": space, "region": {"kind": "ball", "center": [0, 0, 1], "radius": 1.0}}
        with pytest.raises(RegionFormatError) as info:
            document_to_space_region(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("space, node, message", [
        (S2, {"kind": "halfspace", "normal": [1, 0, "0"], "orientation": 1},
         "region: normal must be a list of numbers, got [1, 0, '0']"),
        (S2, {"kind": "halfspace", "normal": [1, 0, 0], "orientation": "1"},
         "region: orientation must be an integer, got '1'"),
        (E2, {"kind": "halfspace", "normal": [1, 0], "orientation": 1, "offset": "0.2"},
         "region: offset must be a number, got '0.2'"),
        (S2, {"kind": "ball", "center": [0, 0, 10 ** 400], "radius": 0.5},
         f"region: center must be a list of numbers, got [0, 0, {10 ** 400}]"),
    ], ids=["normal", "orientation", "offset", "huge-integer"])
    def test_strings_are_never_numbers(self, space, node, message):
        doc = {"space": {"curvature": space.curvature, "dim": 2}, "region": node}
        with pytest.raises(RegionFormatError) as info:
            document_to_space_region(doc)
        assert str(info.value) == message

    def test_document_needs_space(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"kind": "ball", "center": [0, 0, 1], "radius": 1.0}))
        with pytest.raises(RegionFormatError, match="space"):
            load_region(path)


class TestDigest:
    def test_digest_is_stable(self):
        assert region_digest(nested_region()) == region_digest(nested_region())

    def test_digest_distinguishes(self):
        assert region_digest(Ball(E, 0.5)) != region_digest(Ball(E, 0.5000001))


class TestCoreUnion:
    """A flow carries core balls as plain ball children of a union over its
    symmetrized region, candidate first: the union keeps the candidate's
    envelope and depth, and its document round-trips like any union's."""

    def _pair(self):
        plain = nested_region()
        cores = (Ball(E, 0.1), Ball(np.array([0.0, math.sin(0.2), math.cos(0.2)]), 0.05))
        return plain, Union((plain,) + cores)

    def test_envelope_and_depth(self):
        plain, wrapped = self._pair()
        want, got = bounding_ball(S2, plain), bounding_ball(S2, wrapped)
        assert np.array_equal(got.center, want.center) and got.radius == want.radius
        assert symmetrized_depth(wrapped) == symmetrized_depth(plain)

    def test_document_round_trip(self, tmp_path):
        plain, wrapped = self._pair()
        path = tmp_path / "wrapped.json"
        save_region(path, S2, wrapped)
        _, back = load_region(path)
        assert region_to_dict(back) == region_to_dict(wrapped)
        assert region_digest(back) == region_digest(wrapped) != region_digest(plain)
        assert region_to_dict(back.children[0]) == region_to_dict(plain)


def _random_tree(space, rng, depth):
    """A random region tree with every node kind, at most ``depth`` levels deep."""
    kind = int(rng.integers(0, 6 if depth > 0 else 2))
    if kind == 0:
        center = uniform_in_ball(space, Ball(space.base_point, 0.6), rng)
        return Ball(center, float(rng.uniform(0.1, 1.0)))
    if kind == 1:
        return HalfSpace(random_plane(space, rng))
    if kind in (2, 3):
        children = tuple(_random_tree(space, rng, depth - 1)
                         for _ in range(int(rng.integers(1, 4))))
        return Union(children) if kind == 2 else Intersection(children)
    if kind == 4:
        return Difference(_random_tree(space, rng, depth - 1), _random_tree(space, rng, depth - 1))
    return Symmetrized(random_plane(space, rng), _random_tree(space, rng, depth - 1))


def _number_slots(node):
    """(container, key) for every number a corrupted document could carry:
    radii, centre coordinates, normal coordinates and plane offsets."""
    slots = []
    if node["kind"] == "ball":
        slots.append((node, "radius"))
        slots.extend((node["center"], i) for i in range(len(node["center"])))
    if "normal" in node:
        slots.append((node, "offset"))
        slots.extend((node["normal"], i) for i in range(len(node["normal"])))
    for child in node.get("children", []) + [node[k] for k in ("a", "b", "inner") if k in node]:
        slots.extend(_number_slots(child))
    return slots


def _node_paths(node, path="region"):
    """(path, node) for every node of a region document, in document order."""
    yield path, node
    for i, child in enumerate(node.get("children", [])):
        yield from _node_paths(child, f"{path}.children[{i}]")
    for key in ("a", "b", "inner"):
        if key in node:
            yield from _node_paths(node[key], f"{path}.{key}")


def _corruptions(space, node):
    """Edits that make one node invalid in the space, leaving the document well formed:
    a non-finite number, an off-quadric centre, a zero normal, a radius of pi on S2."""
    if node["kind"] == "ball":
        edits = [lambda n: n.update(radius=math.nan),
                 lambda n: n["center"].__setitem__(0, -math.inf)]
        if space.curvature != 0:
            edits.append(lambda n: n.update(center=[2.0 * v for v in n["center"]]))
        if space.curvature == 1:
            edits.append(lambda n: n.update(radius=math.pi))
        return edits
    if "normal" in node:
        return [lambda n: n["normal"].__setitem__(-1, math.inf),
                lambda n: n.update(normal=[0.0] * len(n["normal"]))]
    return []


class TestDocumentProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(space_name=st.sampled_from(sorted(SPACES)), depth=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_save_load_round_trip(self, tmp_path_factory, space_name, depth, seed):
        space = SPACES[space_name]
        region = _random_tree(space, substream(seed), depth)
        path = tmp_path_factory.mktemp("doc") / "region.json"
        save_region(path, space, region)
        back_space, back = load_region(path)
        assert back_space == space
        assert region_to_dict(back) == region_to_dict(region)
        assert region_digest(back) == region_digest(region)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(space_name=st.sampled_from(sorted(SPACES)), depth=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1), slot=st.integers(0, 10**6),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_number_rejected(self, tmp_path_factory, space_name, depth, seed,
                                        slot, bad):
        space = SPACES[space_name]
        tree = region_to_dict(_random_tree(space, substream(seed), depth))
        slots = _number_slots(tree)
        container, key = slots[slot % len(slots)]
        container[key] = bad
        path = tmp_path_factory.mktemp("doc") / "bad.json"
        path.write_text(json.dumps({"space": {"curvature": space.curvature, "dim": space.dim},
                                    "region": tree}))
        with pytest.raises(RegionFormatError):
            load_region(path)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(space_name=st.sampled_from(sorted(SPACES)), depth=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 10**6))
    def test_bad_node_error_begins_with_its_path(self, space_name, depth, seed, pick):
        space = SPACES[space_name]
        tree = region_to_dict(_random_tree(space, substream(seed), depth))
        choices = [(path, node, edit) for path, node in _node_paths(tree)
                   for edit in _corruptions(space, node)]
        path, node, edit = choices[pick % len(choices)]
        edit(node)
        doc = {"space": {"curvature": space.curvature, "dim": space.dim}, "region": tree}
        with pytest.raises(RegionFormatError) as excinfo:
            document_to_space_region(doc)
        assert str(excinfo.value).startswith(f"{path}: ")
