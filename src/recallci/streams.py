"""Keyed, reproducible random streams for simulation work."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RandomStream"]


@dataclass(frozen=True)
class RandomStream:
    """A named source of pseudo-random numbers.

    A stream is fully identified by ``(seed, path)``: two streams
    with identical keys produce identical draw sequences, and streams with
    distinct keys are statistically independent.  Because the key alone
    determines the stream, results do not depend on the order in which
    streams are created or consumed, which makes per-realization substreams
    safe under any parallel schedule.

    ``generator()`` returns a fresh generator positioned at the *start* of
    the stream; callers that need a long sequence should create one
    generator and draw from it, rather than calling ``generator()``
    repeatedly.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if any(ix < 0 for ix in self.path):
            raise ValueError("path indices must be nonnegative integers")

    def substream(self, *indices: int) -> "RandomStream":
        """Derive an independent child stream keyed by ``indices``."""
        extra = tuple(int(ix) for ix in indices)
        return RandomStream(self.seed, self.path + extra)

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator at the start of this stream."""
        # The leading 0 keeps the keys, and so the draws, of earlier releases.
        key = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(0, *self.path))
        return np.random.Generator(np.random.PCG64(key))
