"""SplitMix64: a small, stable, splittable 64-bit generator.

Used everywhere randomness is needed so that results are bit-reproducible
across runs, platforms, and Python versions.  Substreams are derived by
XOR-ing the base seed (for example with an edge index) before construction.
"""

from __future__ import annotations

from .core import ArgumentError

MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit PRNG with a tiny state."""

    def __init__(self, seed: int):
        self._state = seed & MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n); modulo bias is ~n/2^64, negligible."""
        if n <= 0:
            raise ArgumentError("randbelow needs n >= 1")
        return self.next_u64() % n

    def sample(self, population: list, k: int) -> list:
        """k distinct items via a partial Fisher-Yates shuffle; order random."""
        pool = list(population)
        if k > len(pool):
            raise ArgumentError("sample larger than population")
        for i in range(k):
            j = i + self.randbelow(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
