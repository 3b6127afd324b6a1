"""Seedable random source with keyed, non-overlapping substreams."""
from __future__ import annotations

import numpy as np

__all__ = ["RandomSource"]


class RandomSource:
    """A deterministic random stream (PCG64) plus a way to derive substreams.

    Identical seeds produce identical draw sequences.  Substreams derived via
    :meth:`child` are keyed by integer tuples (e.g. ``(replication,
    generation, draw_index)``); distinct keys give statistically independent,
    non-overlapping streams, and the derivation does not depend on the order
    in which children are created.  A source is single-owner: share children,
    not the source itself, across parallel work.
    """

    def __init__(self, seed: int | None = None, *, _seq: np.random.SeedSequence | None = None):
        if _seq is None:
            if seed is not None:
                if not isinstance(seed, (int, np.integer)) or seed < 0:
                    raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
            _seq = np.random.SeedSequence(seed)
        self._seq = _seq
        self.seed = _seq.entropy
        self.generator = np.random.Generator(np.random.PCG64(_seq))

    def child(self, *key: int) -> RandomSource:
        """Derive the substream identified by ``key``, independent of call order."""
        if not key:
            raise ValueError("child() requires at least one integer key")
        seq = np.random.SeedSequence(
            entropy=self._seq.entropy,
            spawn_key=tuple(self._seq.spawn_key) + tuple(int(k) for k in key),
        )
        return RandomSource(_seq=seq)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, key={tuple(self._seq.spawn_key)})"
