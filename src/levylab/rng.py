"""Deterministic keyed random streams.

Every stochastic operation in the library draws from its own SFC64
generator, keyed by a (seed, labels...) tuple: the SHA-256 of the key's
repr, cut to 128 bits, seeds the generator through numpy's `SeedSequence`.
A stream's draws depend on its key alone, never on which thread or worker
runs it or in what order, so a fixed shard plan reproduces results
bit-for-bit.

Streams are independent for all practical purposes: SFC64 carries a 64-bit
counter in its 256-bit state, so every stream has a period of at least
2^64, and `SeedSequence` spreads distinct keys over that state, where the
chance that two streams' draws overlap is negligible.
"""

import hashlib

import numpy as np

ALGORITHM = "sfc64"


def substream(seed: int, *labels) -> np.random.Generator:
    """Generator keyed by (seed, labels); same key -> identical draw sequence."""
    tag = repr((int(seed),) + tuple(str(l) for l in labels)).encode()
    key = int.from_bytes(hashlib.sha256(tag).digest()[:16], "little")
    return np.random.Generator(np.random.SFC64(key))
