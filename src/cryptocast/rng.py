"""Deterministic pseudo-random numbers.

A small splitmix64 generator so that every seeded run produces the same
stream on every platform, independent of any third-party library's stream
stability guarantees. Quality is more than sufficient for parameter
initialization and synthetic fixtures.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = (h ^ byte) * 0x100000001B3 & _MASK64
    return h


class Rng:
    """splitmix64 stream with uniform/normal/integer helpers.

    Identical seeds yield identical streams. `derive` builds an
    independent child stream from the parent's seed and a text tag, so
    sub-tasks can be reseeded without consuming the parent stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed
        self._spare_normal: float | None = None

    def derive(self, tag: str) -> "Rng":
        return Rng(_mix(self.seed ^ _fnv1a(tag.encode("utf-8"))))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        # 53 random bits -> double in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def _next_u64s(self, n: int) -> np.ndarray:
        """next_u64 n times over, as one uint64 array: the i-th draw mixes
        state + i * golden, and the state advances by n * golden."""
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        if size is None:
            return low + (high - low) * self.next_float()
        z = self._next_u64s(int(np.prod(size)))
        return (low + (high - low) * ((z >> np.uint64(11)) * 2.0**-53)).reshape(size)

    def _next_normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # Box-Muller; u1 kept away from 0 so log() stays finite
        u1 = self.next_float()
        while u1 <= 0.0:
            u1 = self.next_float()
        u2 = self.next_float()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def normal(self, size=None):
        if size is None:
            return self._next_normal()
        n = int(np.prod(size))
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self._next_normal()
        return out.reshape(size)

    def integer(self, n: int) -> int:
        """Uniform draw from 0..n-1 without modulo bias."""
        if n <= 0:
            raise ValueError("integer() requires n >= 1")
        bound = _MASK64 + 1 - ((_MASK64 + 1) % n)
        draw = self.next_u64()
        while draw >= bound:
            draw = self.next_u64()
        return draw % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n), swapping i with integer(i + 1)
        for i from n - 1 down to 1. The n - 1 draws come as one array; in
        the rare case that one of them would be rejected for bias, the
        state is rewound and the draws are taken one by one, as `integer`
        takes them."""
        state = self._state
        sizes = np.arange(n, 1, -1, dtype=np.uint64)
        draws = self._next_u64s(len(sizes))
        # integer(m) rejects a draw of at least 2**64 - (2**64 % m)
        excess = (np.uint64(_MASK64) % sizes + np.uint64(1)) % sizes
        if np.any(draws > np.uint64(_MASK64) - excess):
            self._state = state
            picks = [self.integer(i + 1) for i in range(n - 1, 0, -1)]
        else:
            picks = (draws % sizes).tolist()
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int_)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        if k > n:
            raise ValueError(f"cannot sample {k} items from {n}")
        return self.permutation(n)[:k]
