"""Named, seeded random streams.

Every stochastic component draws from its own named stream derived from a
single root seed, so (a) runs are reproducible and (b) adding randomness to
one component never perturbs another's stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory of named :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.root_seed, name))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:
        return f"<RngRegistry seed={self.root_seed} streams={len(self._streams)}>"
