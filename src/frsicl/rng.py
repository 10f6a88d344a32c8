"""Seeded random streams with labeled, independent substreams.

Built on numpy's PCG64 (a documented, portable generator): identical
(seed, label) pairs produce identical draw sequences on every platform.
Labels are folded into the seed material via SHA-256 so substreams do not
depend on Python's per-process string hashing.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_entropy(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")


class RngStream:
    """A seeded generator plus derivation of independent labeled substreams."""

    def __init__(self, seed: int, label: str = "root"):
        self.seed = int(seed)
        self.label = label
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, _label_entropy(label)]))
        )

    def substream(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.label}/{label}")

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.gen.uniform(low, high, size=size)

    def random(self) -> float:
        return float(self.gen.random())
