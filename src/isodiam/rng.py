"""Counter-based random streams.

Every stochastic routine takes an integer seed and derives independent
substreams by spawn-key path, so results are reproducible bit for bit and
independent of any worker count or evaluation order.
"""

from __future__ import annotations

import numpy as np


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the (seed, path) coordinate; same inputs, same stream."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """Derived integer seed for the (seed, path) coordinate."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])
