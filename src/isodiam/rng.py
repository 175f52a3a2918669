"""Counter-based random streams.

A function that owns an integer seed names each of its streams once, as a
spawn-key path under that seed; everything below it takes the
``np.random.Generator``.  Results are reproducible bit for bit and
independent of any worker count or evaluation order.  The streams in use:

- ``run_flow``: (0, 1) the initial volume, (0, 2) the reference cloud and
  (0, 0) the initial cloud.  Each ``flow_step`` k: (k, 3) the plane, (k, 7)
  the rebase, (k, 4) the counting-identity check, (k, 1) the volume and
  (k, 0) the cloud.  A lone ball's volume is exact and draws nothing, so
  (k, 1), (0, 1) included, is not opened for one; a step that leaves its
  region unchanged (a ball whose centre is on the plane) opens neither
  (k, 4) nor (k, 1).
- ``verify_isodiametric`` trial k: (k, 0) the region, (k, 1) its cloud and,
  for n >= 3 only, (k, 2) its volume; an n = 2 volume is exact and draws
  nothing, and so is a lone ball's at any n, which leaves (k, 2) unopened.
- the CLI and the probes (``greedy_maximal``, ``hull_diameter_check``,
  ``ball_convexity_probe``): the root stream ``substream(seed)``; only
  ``hull-check`` needs two, and samples its cloud from (0,).
"""

from __future__ import annotations

import numpy as np


def _whole(name: str, value) -> int:
    """value as an int, if it is a number without a fraction and not a bool."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            whole = int(value)
            if whole == value:
                return whole
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the (seed, path) coordinate; same inputs, same stream.

    The seed and each path element must be integers (numpy's included), or
    numbers without a fraction; a bool, or a number such as 2.5, raises
    ValueError naming it rather than being truncated to another stream.
    """
    seed = _whole("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    key = np.random.SeedSequence(
        entropy=seed, spawn_key=tuple(_whole(f"path element {i}", p) for i, p in enumerate(path)))
    return np.random.Generator(np.random.Philox(key))
