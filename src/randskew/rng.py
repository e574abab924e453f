"""Counter-based random number generation with explicit seed splitting.

Every random procedure in the package takes an explicit 64-bit seed and
derives independent Philox streams from it by hashing a path of integers
(e.g. ``(seed, trial_index)``).  Concurrent trials therefore never share
generator state, and serial / parallel execution orders produce identical
draws.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def split(seed: int, *path: int) -> int:
    """Derive a new 64-bit seed from ``seed`` and a path of stream indices."""
    key = _splitmix64(int(seed) & _MASK64)
    for part in path:
        key = _splitmix64(key ^ ((int(part) & _MASK64) | (1 << 63)))
    return key


def generator(seed: int, *path: int) -> Generator:
    """A Philox generator keyed by ``split(seed, *path)``."""
    return Generator(Philox(key=split(seed, *path)))


def uniform_rows(seeds, m: int) -> np.ndarray:
    """A T x m array whose row t is ``generator(seeds[t]).random(m)``, bitwise.

    One Philox is built per call and reset to each seed's key with a zero
    counter and an empty buffer, which costs far less than building a
    generator per seed; the rows share no stream, and nothing outlives the
    call.
    """
    seeds = list(seeds)
    out = np.empty((len(seeds), m))
    bits = Philox(key=0)
    gen = Generator(bits)
    key = np.zeros(2, dtype=np.uint64)
    # counter zero and an empty buffer (position 4 of 4), as Philox(key=k)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for t, seed in enumerate(seeds):
        key[0] = split(seed)
        bits.state = state
        gen.random(out=out[t])
    return out
