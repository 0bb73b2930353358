"""Keyed random streams for reproducible parallel trial generation.

Every series is generated in fixed-size blocks. Block ``j`` of the series
for setting pair ``p`` draws from a PCG64DXSM stream seeded by
``SeedSequence(seed, spawn_key=(pair_code(p), j))``, so the randomness
behind trial ``i`` is a pure function of ``(seed, pair, i // BLOCK_SIZE,
i % BLOCK_SIZE)``. Block boundaries never move, which makes the output
bitwise identical no matter how blocks are distributed over workers or
in what order they run.

``trial_stream`` defines a block's stream. ``draw_counts`` (a run's counts)
and ``series_streams`` key chunks of blocks in one vectorized pass and
re-key one generator per block in place, or through its state setter.
"""

from __future__ import annotations

import ctypes
from typing import Iterator, Sequence

import numpy as np

#: Trials per block. Fixed: changing it changes the streams.
BLOCK_SIZE = 1 << 14

# SeedSequence's hash constants (numpy/random/bit_generator.pyx); its
# output is part of numpy's stream-compatibility promise since 1.19.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), with
# which numpy seeds PCG64DXSM, as uint64 words and the low word's halves.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO_HI, _MULT_LO_LO = np.uint64(_PCG_MULT >> 32 & 0xFFFFFFFF), np.uint64(_PCG_MULT & 0xFFFFFFFF)

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
    return np.random.Generator(np.random.PCG64DXSM(ss))


def _powers(base: int, first: int, count: int) -> np.ndarray:
    """base**first, ..., base**(first + count - 1) modulo 2**32."""
    return np.array([pow(base, e, 1 << 32) for e in range(first, first + count)], dtype=np.uint32)


# The hash constants of the block word's mix into each pool word: hashmix
# calls made before it are 4 for the seed words (a seed below 2**64 is at
# most 2 words, padded to 4), 4 * 3 for the cross mix and 4 for the pair
# code (one word). Then those of generate_state's 8 output words.
_DONE = _POOL + _POOL * (_POOL - 1) + _POOL
_XOR_A = _INIT_A * _powers(_MULT_A, _DONE, _POOL)
_MUL_A = _INIT_A * _powers(_MULT_A, _DONE + 1, _POOL)
_XOR_B = _INIT_B * _powers(_MULT_B, 0, 2 * _POOL)
_MUL_B = _INIT_B * _powers(_MULT_B, 1, 2 * _POOL)


def _block_keys(pool: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(pair_code, b)).generate_state(4,
    np.uint64)`` for each uint32 block index b, as an (m, 4) uint64 array,
    given the pool of ``SeedSequence(seed, spawn_key=(pair_code,))``; for
    a (P, 4) stack of such pools, a (P, m, 4) array.

    That pool is the longer sequence's state before its last entropy word;
    this finishes the job: SeedSequence's mix of the block word into each
    pool word, then ``generate_state``, whose 8 uint32 output words cycle
    through the 4 pool words twice. uint32 arithmetic wraps modulo 2**32,
    as the C code does.
    """
    h = (blocks[:, None] ^ _XOR_A) * _MUL_A
    h ^= h >> 16
    mixed = np.uint32(_MIX_L) * pool[..., None, :] - np.uint32(_MIX_R) * h
    mixed ^= mixed >> 16
    state = (np.tile(mixed, 2) ^ _XOR_B) * _MUL_B
    state ^= state >> 16
    # generate_state reads its uint32 words as little-endian uint64 pairs
    return state.astype("<u4", copy=False).view("<u8")


def _pcg_keys(words: np.ndarray) -> np.ndarray:
    """numpy's PCG64DXSM seeding of each row (s0, s1, i0, i1) of seed words as
    a row (state_lo, state_hi, inc_lo, inc_hi): inc = 2 * (i0 * 2**64 + i1) + 1,
    t = inc + s0 * 2**64 + s1, state = (t * M + inc) mod 2**128, in uint64 lanes:
    a low-word sum carries when it wraps; t_lo * M_lo's high word is from halves."""
    s0, s1, i0, i1 = np.moveaxis(words, -1, 0)
    inc_lo, inc_hi = i1 << 1 | 1, i0 << 1 | i1 >> 63
    t_lo = s1 + inc_lo
    t_hi = s0 + inc_hi + (t_lo < inc_lo)
    a0, a1 = t_lo & 0xFFFFFFFF, t_lo >> 32
    mid = a1 * _MULT_LO_LO + (a0 * _MULT_LO_LO >> 32)
    product_hi = a1 * _MULT_LO_HI + (mid >> 32) + ((mid & 0xFFFFFFFF) + a0 * _MULT_LO_HI >> 32)
    state_lo = t_lo * _MULT_LO + inc_lo
    state_hi = product_hi + t_lo * _MULT_HI + t_hi * _MULT_LO + inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=-1)


def _state_views(bit_gen: np.random.PCG64DXSM) -> tuple[np.ndarray, ctypes.c_uint64] | None:
    """Writable views of the words (state_lo, state_hi, inc_lo, inc_hi) and the
    half word (has_uint32, uinteger) that numpy's pcg64_state at bit_gen's
    ``ctypes.state_address`` points to and holds, or None unless they read as
    the state getter does with a half word buffered."""
    address = bit_gen.ctypes.state_address
    pointer = ctypes.c_void_p.from_address(address).value or 0
    if not id(bit_gen) <= pointer <= id(bit_gen) + type(bit_gen).__basicsize__ - 32:
        return None  # the words must lie inside the generator object
    words = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(pointer))
    half_word = ctypes.c_uint64.from_address(address + ctypes.sizeof(ctypes.c_void_p))
    bit_gen.ctypes.next_uint32(address)
    state, (s_lo, s_hi, i_lo, i_hi) = bit_gen.state, words.tolist()
    got = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}, half_word.value
    return (words, half_word) if got == (state["state"], state["uinteger"] << 32 | state["has_uint32"]) else None


def _set_key(bit_gen: np.random.PCG64DXSM, row: np.ndarray) -> None:
    """Key bit_gen to a (state_lo, state_hi, inc_lo, inc_hi) row through its state setter."""
    s_lo, s_hi, i_lo, i_hi = row.tolist()
    bit_gen.state = {"bit_generator": "PCG64DXSM", "has_uint32": 0, "uinteger": 0,
                     "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}}


def check_block_count(n_blocks: int) -> None:
    if not 0 <= n_blocks <= _MAX_BLOCKS:
        raise ValueError(f"n_per_series must be at most {BLOCK_SIZE * _MAX_BLOCKS} (2**32 blocks of "
                         f"{BLOCK_SIZE} trials), got {n_blocks} blocks")


def series_streams(seed: int, pair_code: int, n_blocks: int) -> Iterator[np.random.Generator]:
    """Yield, for blocks 0 .. n_blocks - 1 of one setting pair's series in
    order, a generator equal bit for bit to ``trial_stream(seed, pair_code,
    block)``: one PCG64DXSM re-keyed per block as in ``draw_counts``, valid
    only until the next one is taken."""
    check_block_count(n_blocks)
    ss = np.random.SeedSequence(validate_seed(seed), spawn_key=(pair_code,))
    rng = np.random.Generator(np.random.PCG64DXSM(ss))
    words, half_word = _state_views(rng.bit_generator) or (None, None)
    for first in range(0, n_blocks, _KEY_CHUNK):
        blocks = np.arange(first, min(first + _KEY_CHUNK, n_blocks), dtype=np.uint32)
        for row in _pcg_keys(_block_keys(ss.pool, blocks)):
            if words is None:
                _set_key(rng.bit_generator, row)
            else:
                words[...], half_word.value = row, 0
            yield rng


def draw_counts(seed: int, rows: Sequence[tuple[int, Sequence[int]]], d: int, n: int) -> list[np.ndarray]:
    """Per (pair_code, nums) of ``rows``, the counts of n trials over outcomes
    of weights nums / d: all n on a sole outcome of positive weight, with no
    draw; else one draw per block of k trials on ``trial_stream(seed,
    pair_code, block)`` over the positive weights w: ``binomial(k, w[0])``
    for two (what ``multinomial(k, w)`` draws), ``multinomial(k, w)`` for more.
    The drawn series' keys are derived together, ``_KEY_CHUNK`` blocks per
    pass; one PCG64DXSM, checked once by ``_state_views``, is re-keyed per
    block in place, or through its state setter."""
    seed, n_blocks = validate_seed(seed), -(-n // BLOCK_SIZE)
    check_block_count(n_blocks)
    counts = [np.zeros(len(nums), dtype=np.int64) for _, nums in rows]
    series = []
    for (code, nums), c in zip(rows, counts):
        support = [i for i, num in enumerate(nums) if num]
        if len(support) == 1:
            c[support] = n
        else:
            series.append((code, c, support, np.array([nums[i] / d for i in support])))
    if not series:
        return counts
    pools = np.array([np.random.SeedSequence(seed, spawn_key=(code,)).pool for code, *_ in series])
    rng = np.random.Generator(np.random.PCG64DXSM(seed))  # re-keyed before every draw
    words, half_word = _state_views(rng.bit_generator) or (None, None)
    step = max(1, _KEY_CHUNK // len(series))
    for first in range(0, n_blocks, step):
        stop = min(first + step, n_blocks)
        sizes = [BLOCK_SIZE] * (stop - first - 1) + [min(BLOCK_SIZE, n - (stop - 1) * BLOCK_SIZE)]
        keys = _pcg_keys(_block_keys(pools, np.arange(first, stop, dtype=np.uint32)))
        for (_, c, support, w), series_keys in zip(series, keys):
            draw, p, acc = (rng.binomial, float(w[0]), 0) if len(w) == 2 else (rng.multinomial, w, 0)
            for row, k in zip(series_keys, sizes):
                if words is None:
                    _set_key(rng.bit_generator, row)
                else:
                    words[...] = row
                    half_word.value = 0
                acc += draw(k, p)
            c[support] += (acc, sum(sizes) - acc) if len(w) == 2 else acc
    return counts


def iter_blocks(n: int):
    """Yield (block_index, start, stop) covering range(n) in fixed blocks."""
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        yield block, start, min(start + BLOCK_SIZE, n)
