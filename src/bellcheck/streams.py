"""Keyed random streams for reproducible trial generation.

Every draw of a run comes from a PCG64DXSM stream keyed by (seed, setting
pair, block): ``trial_stream(seed, pair_code(p), j)``, seeded by
``SeedSequence(seed, spawn_key=(pair_code(p), j))``.

Under stream scheme v4 a series of a declared distribution, or of the
singlet, is one draw on block 0's stream, whatever its length
(``draw_counts``). A model on the tag path draws its tags in fixed blocks
of ``BLOCK_SIZE`` (``iter_blocks``), block j on its own stream. numpy
stays in the drawing: every count leaves here as a Python int.
"""

from __future__ import annotations

from numbers import Integral
from typing import Mapping, Sequence

import numpy as np

from .core import PAIR_CODES, SETTING_PAIRS

#: Trials per block. Fixed: changing it changes the streams.
BLOCK_SIZE = 1 << 14

#: SeedSequence splits a spawn-key int of 2**32 or more into two words;
#: a block index stays one word.
_MAX_BLOCKS = 1 << 32


def validate_seed(seed: int) -> int:
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def trial_stream(seed: int, pair_code: int, block: int) -> np.random.Generator:
    """The dedicated generator for one (setting pair, block) cell."""
    ss = np.random.SeedSequence(validate_seed(seed), spawn_key=(pair_code, block))
    return np.random.Generator(np.random.PCG64DXSM(ss))


def check_run(n_per_series: int, seed: int) -> tuple[int, int]:
    """Check a run's size and seed before anything is compiled or drawn,
    and return both as Python ints."""
    if isinstance(n_per_series, bool) or not isinstance(n_per_series, Integral) or n_per_series < 1:
        raise ValueError(f"n_per_series must be an integer of at least 1, got {n_per_series!r}")
    n = int(n_per_series)
    if (n_blocks := -(-n // BLOCK_SIZE)) > _MAX_BLOCKS:
        raise ValueError(f"n_per_series must be at most {BLOCK_SIZE * _MAX_BLOCKS} (2**32 blocks of "
                         f"{BLOCK_SIZE} trials), got {n_blocks} blocks")
    return n, validate_seed(seed)


def draw_counts(
    distribution: tuple[Mapping[tuple[int, int], Sequence[int]], int], n: int, seed: int
) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per setting pair, the counts of n independent trials over the
    outcomes of ``distribution`` (per pair, integer weights nums; their
    denominator d), as a tuple of Python ints: all n on a sole outcome of
    positive weight, with no draw; else one draw on
    ``trial_stream(seed, pair_code, 0)`` over the positive weights w:
    ``binomial(n, w[0])`` for two (what ``multinomial(n, w)`` draws),
    ``multinomial(n, w)`` for more. A zero weight counts 0."""
    nums, d = distribution
    counts = {}
    for pair in SETTING_PAIRS:
        row = nums[pair]
        w = [num / d for num in row if num]
        if len(w) == 1:
            drawn = iter((n,))
        elif len(w) == 2:
            k = int(trial_stream(seed, PAIR_CODES[pair], 0).binomial(n, w[0]))
            drawn = iter((k, n - k))
        else:
            drawn = iter(trial_stream(seed, PAIR_CODES[pair], 0).multinomial(n, w).tolist())
        counts[pair] = tuple(next(drawn) if num else 0 for num in row)
    return counts


def iter_blocks(n: int):
    """Yield (block_index, start, stop) covering range(n) in fixed blocks."""
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        yield block, start, min(start + BLOCK_SIZE, n)
