"""Self-contained deterministic random number generation.

Everything that draws randomness in this package goes through SplitMix64,
a public-domain 64-bit generator with an explicit additive state transition.
Keeping the generator in-package (rather than relying on numpy's bit
generators) makes every sampled tensor and every experiment CSV reproducible
bit for bit across library versions and platforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# Weyl-sequence increment and the two mixing multipliers of SplitMix64.
_GOLDEN = 0x9E3779B97F4B7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream: state advances by a fixed increment, outputs are
    a bijective finalizer of the state. state_k = seed + k * 0x9E3779B97F4B7C15
    (mod 2^64), output_k = finalize(state_k)."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def next_uint64(self) -> int:
        self._count += 1
        return _finalize(self._seed + self._count * _GOLDEN)

    def next_float(self) -> float:
        # 53-bit mantissa, uniform on [0, 1)
        return (self.next_uint64() >> 11) * 2.0**-53

    def floats(self, size: int) -> np.ndarray:
        """Vectorized equivalent of calling next_float() `size` times."""
        start = self._count + 1
        idx = np.arange(start, start + size, dtype=np.uint64)
        z = (np.uint64(self._seed) + idx * np.uint64(_GOLDEN)).astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._count += size
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def spawn(self, index: int) -> "SplitMix64":
        """Independent child stream, derived deterministically from the seed.

        Used for per-restart streams, so that a restart's randomness
        depends only on the seed and its index.
        """
        child_seed = _finalize(self._seed ^ _finalize((index + 1) * _GOLDEN))
        return SplitMix64(child_seed)

    def simplex_point(self, size: int) -> np.ndarray:
        """Draw from the flat Dirichlet distribution on the simplex.

        Normalized i.i.d. exponentials; exponentials come from inverting the
        CDF on uniforms, which keeps the draw inside this generator.
        """
        if size == 1:
            return np.ones(1)
        u = self.floats(size)
        e = -np.log1p(-u)
        total = e.sum()
        if total <= 0.0:
            return np.full(size, 1.0 / size)
        return e / total
