"""Counter-based random streams for reproducible parallel trial generation.

Every series is generated in fixed-size blocks. Block ``j`` of the series
for setting pair ``p`` draws from a Philox stream keyed by
``SeedSequence(seed, spawn_key=(pair_code(p), j))``, so the randomness
behind trial ``i`` is a pure function of ``(seed, pair, i // BLOCK_SIZE,
i % BLOCK_SIZE)``. Block boundaries never move, which makes the output
bitwise identical no matter how blocks are distributed over workers or
in what order they run.

``trial_stream`` is the definition of a block's stream. A run walks a
series through ``series_streams``, which derives the same Philox keys for
a chunk of blocks in one vectorized pass and re-keys a single generator
per block instead of hashing a fresh SeedSequence for each.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Trials per block. Fixed: changing it changes the streams.
BLOCK_SIZE = 1 << 14

#: spawn_key namespace for the scheduler's shuffle stream; distinct from
#: the (pair_code, block) data keys by tuple length.
_SCHEDULE_KEY = (0x5EED,)

# SeedSequence's hash constants (numpy/random/bit_generator.pyx); its
# output is part of numpy's stream-compatibility promise since 1.19.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

#: Blocks keyed per vectorized pass: bounds the key memory of a series.
_KEY_CHUNK = 4096

#: SeedSequence splits a spawn-key int of 2**32 or more into two words;
#: ``series_streams`` mixes each block index in as one word.
_MAX_BLOCKS = 1 << 32


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


def _powers(base: int, first: int, count: int) -> np.ndarray:
    """base**first, ..., base**(first + count - 1) modulo 2**32."""
    return np.array([pow(base, e, 1 << 32) for e in range(first, first + count)], dtype=np.uint32)


def _block_keys(pool: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The Philox keys of ``SeedSequence(seed, spawn_key=(pair_code, b))``
    for each uint32 block index b, as an (m, 2) uint64 array, given the
    pool of ``SeedSequence(seed, spawn_key=(pair_code,))``.

    That pool is the longer sequence's state before its last entropy word;
    this finishes the job: SeedSequence's mix of the block word into each
    pool word, then ``generate_state(2, np.uint64)``. uint32 arithmetic
    wraps modulo 2**32, as the C code does.
    """
    # hashmix calls made before the block word: 4 for the seed words
    # (a seed below 2**64 is at most 2 words, padded to 4), 4 * 3 for the
    # cross mix, 4 for the pair code (one word)
    done = _POOL + _POOL * (_POOL - 1) + _POOL
    xor_a = _INIT_A * _powers(_MULT_A, done, _POOL)
    mul_a = _INIT_A * _powers(_MULT_A, done + 1, _POOL)
    xor_b = _INIT_B * _powers(_MULT_B, 0, _POOL)
    mul_b = _INIT_B * _powers(_MULT_B, 1, _POOL)
    h = (blocks[:, None] ^ xor_a) * mul_a
    h ^= h >> 16
    mixed = np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * h
    mixed ^= mixed >> 16
    state = (mixed ^ xor_b) * mul_b
    state ^= state >> 16
    # generate_state reads its uint32 words as little-endian uint64 pairs
    return state.astype("<u4").view("<u8").astype(np.uint64)


def series_streams(seed: int, pair_code: int, n_blocks: int) -> Iterator[np.random.Generator]:
    """Yield, for blocks 0 .. n_blocks - 1 of one setting pair's series in
    order, a generator equal bit for bit to ``trial_stream(seed,
    pair_code, block)``.

    Keys are derived ``_KEY_CHUNK`` blocks at a time, so memory stays flat
    in n_blocks. One Philox is re-keyed per block (counter 0, emptied
    buffer, no buffered half word), so a yielded generator is valid only
    until the next one is taken.
    """
    if not 0 <= n_blocks <= _MAX_BLOCKS:
        raise ValueError(
            f"n_per_series must be at most {BLOCK_SIZE * _MAX_BLOCKS} (2**32 blocks of "
            f"{BLOCK_SIZE} trials), got {n_blocks} blocks"
        )
    ss = np.random.SeedSequence(validate_seed(seed), spawn_key=(pair_code,))
    bit_gen = np.random.Philox(ss)
    rng = np.random.Generator(bit_gen)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for first in range(0, n_blocks, _KEY_CHUNK):
        blocks = np.arange(first, min(first + _KEY_CHUNK, n_blocks), dtype=np.uint32)
        for key in _block_keys(ss.pool, blocks):
            state["state"]["key"] = key
            bit_gen.state = state
            yield rng


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
