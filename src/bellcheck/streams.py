"""Keyed random streams for reproducible trial generation.

Every draw of a run comes from a PCG64DXSM stream keyed by (seed, setting
pair, block): ``trial_stream(seed, pair_code(p), j)``, seeded by
``SeedSequence(seed, spawn_key=(pair_code(p), j))``.

Under stream scheme v4 a series of a declared distribution, or of the
singlet, is one draw on block 0's stream, whatever its length
(``draw_counts``). A model on the tag path draws its tags in fixed blocks
of ``BLOCK_SIZE``, block j on its own stream, so its results are bitwise
identical however blocks are distributed over workers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Trials per block. Fixed: changing it changes the streams.
BLOCK_SIZE = 1 << 14

#: SeedSequence splits a spawn-key int of 2**32 or more into two words;
#: a block index stays one word.
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


def check_block_count(n_blocks: int) -> None:
    if not 0 <= n_blocks <= _MAX_BLOCKS:
        raise ValueError(f"n_per_series must be at most {BLOCK_SIZE * _MAX_BLOCKS} (2**32 blocks of "
                         f"{BLOCK_SIZE} trials), got {n_blocks} blocks")


def draw_counts(seed: int, rows: Sequence[tuple[int, Sequence[int]]], d: int, n: int) -> list[np.ndarray]:
    """Per (pair_code, nums) of ``rows``, the counts of n independent trials
    over outcomes of weights nums / d: all n on a sole outcome of positive
    weight, with no draw; else one draw on ``trial_stream(seed, pair_code,
    0)`` over the positive weights w: ``binomial(n, w[0])`` for two (what
    ``multinomial(n, w)`` draws), ``multinomial(n, w)`` for more."""
    counts = []
    for code, nums in rows:
        c = np.zeros(len(nums), dtype=np.int64)
        support = [i for i, num in enumerate(nums) if num]
        w = [nums[i] / d for i in support]
        if len(support) == 1:
            c[support] = n
        elif len(support) == 2:
            k = int(trial_stream(seed, code, 0).binomial(n, w[0]))
            c[support] = k, n - k
        else:
            c[support] = trial_stream(seed, code, 0).multinomial(n, w)
        counts.append(c)
    return counts


def iter_blocks(n: int):
    """Yield (block_index, start, stop) covering range(n) in fixed blocks."""
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        yield block, start, min(start + BLOCK_SIZE, n)
