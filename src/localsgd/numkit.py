"""The deterministic RNG contract shared by every module.

Randomness comes from counter-based Philox streams so that any draw is a
pure function of (seed, stream_id, counter) and per-node streams can be
split off without sequential dependence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = np.uint64
# Philox emits 64-bit words in blocks of 4 per counter increment.
_WORDS_PER_BLOCK = 4


@dataclass
class RngStream:
    """Counter-based random stream: state is exactly (seed, stream_id, counter).

    Index draws consume one 64-bit Philox word each, so the counter advances
    by exactly the number of indices drawn and any position can be restarted
    bit-identically. Distinct stream_ids index statistically independent
    Philox streams (the stream id is part of the 128-bit key).
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def _key(self) -> np.ndarray:
        return np.array([self.seed, self.stream_id], dtype=_U64)

    def _raw(self, count: int) -> np.ndarray:
        block, within = divmod(self.counter, _WORDS_PER_BLOCK)
        bitgen = np.random.Philox(key=self._key(), counter=block)
        words = bitgen.random_raw(within + count)
        self.counter += count
        return words[within:]

    def generator(self) -> np.random.Generator:
        """numpy Generator over this stream, positioned at the current counter.

        Meant for bulk non-integer draws (e.g. Gaussians) whose word
        consumption is variable; the counter of this RngStream is not
        advanced, so use either the generator or draw_indices on one stream,
        not both interleaved.
        """
        block, within = divmod(self.counter, _WORDS_PER_BLOCK)
        if within != 0:
            raise ValueError("generator() requires a block-aligned counter")
        bitgen = np.random.Philox(key=self._key(), counter=block)
        return np.random.Generator(bitgen)


def draw_indices(rng: RngStream, n: int, size) -> np.ndarray:
    """Draw uniform indices in [0, n), advancing the counter by their count.

    One Philox word per index; the residual modulo bias is below n / 2**64
    and has no measurable effect for any feasible n.
    """
    if n < 1:
        raise ValueError(f"draw_indices: n must be >= 1, got {n}")
    shape = (size,) if np.isscalar(size) else tuple(size)
    count = int(np.prod(shape)) if shape else 1
    words = rng._raw(count)
    return (words % _U64(n)).astype(np.int64).reshape(shape)

