"""Deterministic named random streams.

All randomness in the package flows from a single top-level seed through
named sub-streams, so individual pipeline stages (data generation, weight
init, point sampling, inference) are reproducible in isolation.
"""

import zlib

import numpy as np

from .errors import check_count


def substream(seed, *names):
    """Return a Generator for the sub-stream identified by `names`.

    Names may be strings or ints. The same (seed, names) always yields the
    same stream regardless of how many other streams were drawn before it.
    """
    check_count("seed", seed, 0)
    keys = [int(seed) & 0xFFFFFFFF]
    for name in names:
        if isinstance(name, (int, np.integer)):
            keys.append(int(name) & 0xFFFFFFFF)
        else:
            keys.append(zlib.crc32(str(name).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(keys))
