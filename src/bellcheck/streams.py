"""Counter-based random streams for reproducible parallel trial generation.

Every series is generated in fixed-size blocks. Block ``j`` of the series
for setting pair ``p`` draws from a Philox stream keyed by
``SeedSequence(seed, spawn_key=(pair_code(p), j))``, so the randomness
behind trial ``i`` is a pure function of ``(seed, pair, i // BLOCK_SIZE,
i % BLOCK_SIZE)``. Block boundaries never move, which makes the output
bitwise identical no matter how blocks are distributed over workers or
in what order they run.
"""

from __future__ import annotations

import numpy as np

#: Trials per block. Fixed: changing it changes the streams.
BLOCK_SIZE = 1 << 14

#: spawn_key namespace for the scheduler's shuffle stream; distinct from
#: the (pair_code, block) data keys by tuple length.
_SCHEDULE_KEY = (0x5EED,)


def validate_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def trial_stream(seed: int, pair_code: int, block: int) -> np.random.Generator:
    """The dedicated generator for one (setting pair, block) cell."""
    ss = np.random.SeedSequence(validate_seed(seed), spawn_key=(pair_code, block))
    return np.random.Generator(np.random.Philox(ss))


def schedule_stream(seed: int) -> np.random.Generator:
    """Stream used only to shuffle task dispatch order (interleaved mode)."""
    ss = np.random.SeedSequence(validate_seed(seed), spawn_key=_SCHEDULE_KEY)
    return np.random.Generator(np.random.Philox(ss))


def iter_blocks(n: int):
    """Yield (block_index, start, stop) covering range(n) in fixed blocks."""
    block = 0
    start = 0
    while start < n:
        stop = min(start + BLOCK_SIZE, n)
        yield block, start, stop
        block += 1
        start = stop
