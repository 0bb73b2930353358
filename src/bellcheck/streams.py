"""Keyed random streams for reproducible trial generation.

Every draw of a run comes from a PCG64DXSM stream keyed by (seed, setting
pair, block): ``trial_stream(seed, pair_code(p), j)``, seeded by
``SeedSequence(seed, spawn_key=(pair_code(p), j))``.

Under stream scheme v4 a series of a declared distribution, or of the
singlet, is one draw on block 0's stream, whatever its length
(``draw_counts``). A model on the tag path draws its tags in fixed blocks
of ``BLOCK_SIZE`` (``iter_blocks``), block j on its own stream. numpy
stays in the drawing: every count leaves here as a Python int.

``trial_stream`` stays the definition. ``draw_counts`` derives the same
generators from one ``SeedSequence(seed).pool`` per run, the seed's half
of SeedSequence's mixing that all four keys share, and mixes in each
pair's spawn key with SeedSequence's constants, which NEP 19 freezes
(``_pool_stream``); a test ties each such generator to ``trial_stream``.
"""

from __future__ import annotations

from numbers import Integral
from typing import Mapping, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


_MASK32 = 0xFFFFFFFF

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashes(words: Sequence[int], const: int, mult: int) -> list[int]:
    # SeedSequence's hashmix (mult _MULT_A) and generate_state's output
    # hash (mult _MULT_B): the constant steps by mult per word, whatever
    # the word, so a hash's constant is fixed by its place in the order
    out = []
    for value in words:
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    return out


#: Per pair code, MIX_MULT_R times the hashmix of each spawn-key word that
#: mix_entropy folds into the four pool words, in order: the code into
#: words 0-3, then block 0 into words 0-3. The seed's pool took the hash
#: constant's first 16 steps (4 words hashed in, 12 cross-mixes).
_SPAWN_TERMS = tuple(
    tuple(_MIX_MULT_R * h for h in _hashes([code] * 4 + [0] * 4, _INIT_A * pow(_MULT_A, 16, 1 << 32) & _MASK32, _MULT_A))
    for code in range(len(PAIR_CODES))
)


class _MixedKey(ISeedSequence):
    """The four uint64 words PCG64DXSM seeds from, already mixed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a mixed key holds exactly 4 uint64 words")
        return self.words


def _pool_stream(pool: list[int], pair_code: int) -> np.random.Generator:
    """``trial_stream(seed, pair_code, 0)``'s generator from the seed's
    ``SeedSequence(seed).pool`` as Python ints: the rest of SeedSequence's
    mixing of spawn key (pair_code, 0), then its ``generate_state(4,
    np.uint64)``; numpy's PCG64DXSM seeds itself from those words."""
    words = list(pool)
    for i, term in enumerate(_SPAWN_TERMS[pair_code]):
        mixed = (_MIX_MULT_L * words[i & 3] - term) & _MASK32
        words[i & 3] = mixed ^ mixed >> 16
    s = _hashes(words + words, _INIT_B, _MULT_B)
    state = np.array([s[0] | s[1] << 32, s[2] | s[3] << 32, s[4] | s[5] << 32, s[6] | s[7] << 32], dtype=np.uint64)
    return np.random.Generator(np.random.PCG64DXSM(_MixedKey(state)))


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
    ``trial_stream(seed, pair_code, 0)``'s generator over the positive
    weights w: ``binomial(n, w[0])`` for two (what ``multinomial(n, w)``
    draws), ``multinomial(n, w)`` for more. A zero weight counts 0. The
    seed's pool is taken at the first pair that draws, so a run of sole
    outcomes builds no SeedSequence."""
    nums, d = distribution
    counts, pool = {}, None
    for pair in SETTING_PAIRS:
        row = nums[pair]
        w = [num / d for num in row if num]
        if len(w) > 1 and pool is None:
            pool = np.random.SeedSequence(seed).pool.tolist()
        if len(w) == 1:
            drawn = iter((n,))
        elif len(w) == 2:
            k = int(_pool_stream(pool, PAIR_CODES[pair]).binomial(n, w[0]))
            drawn = iter((k, n - k))
        else:
            drawn = iter(_pool_stream(pool, PAIR_CODES[pair]).multinomial(n, w).tolist())
        counts[pair] = tuple(next(drawn) if num else 0 for num in row)
    return counts


def iter_blocks(n: int):
    """Yield (block_index, start, stop) covering range(n) in fixed blocks."""
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        yield block, start, min(start + BLOCK_SIZE, n)
