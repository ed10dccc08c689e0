"""The deterministic RNG contract shared by every module.

Randomness comes from keyed Philox streams: the 128-bit key is
(seed, stream_id), so every (seed, node) pair owns its own stream and a
stream's draws do not depend on any other stream.
"""
from __future__ import annotations

import numpy as np


class RngStream:
    """Keyed Philox stream: its draws are a pure function of (seed, stream_id).

    One numpy Philox bit generator, created once, keeps the position, so
    drawing 20 then 30 words gives the same words as drawing 50. The stream
    id is part of the 128-bit key, so distinct ids give independent streams.
    Use a stream either for draw_indices or for generator(), not both.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.bitgen = np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64))

    def generator(self) -> np.random.Generator:
        """numpy Generator over this stream, for bulk non-integer draws
        (e.g. Gaussians) whose word consumption is variable."""
        return np.random.Generator(self.bitgen)


def draw_indices(rng: RngStream, n: int, size) -> np.ndarray:
    """Draw uniform indices in [0, n) of shape size, one Philox word each.

    The residual modulo bias is below n / 2**64 and has no measurable
    effect for any feasible n.
    """
    if n < 1:
        raise ValueError(f"draw_indices: n must be >= 1, got {n}")
    return (rng.bitgen.random_raw(size) % np.uint64(n)).astype(np.int64)
