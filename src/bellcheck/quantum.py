"""Singlet-state trial sampling: the violating side of the comparison.

Sign convention: E(a, b) = -cos(a - b), i.e. perfect anticorrelation at
equal settings. The opposite (+cos) convention flips the sign of every
correlation and of S; all bound checks here use |S|, so nothing below
depends on the choice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationTable, SETTING_PAIRS
from .engine import RunCounts, TrialLog, chsh_statistic, count_blocks, generate_trial_log
from .streams import validate_seed


@dataclass(frozen=True)
class AnglePair:
    """Analyzer angles (radians) for both of each party's settings."""

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self):
        for name, v in zip(("a1", "a2", "b1", "b2"), self.as_tuple()):
            if not math.isfinite(v):
                raise ValueError(f"angle {name} must be finite, got {v}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.b1, self.b2)

    def alice(self, index: int) -> float:
        return self.a1 if index == 1 else self.a2

    def bob(self, index: int) -> float:
        return self.b1 if index == 1 else self.b2


#: Angles at which |quantum_chsh| reaches 2*sqrt(2).
TSIRELSON_ANGLES = AnglePair(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def singlet_correlation(a: float, b: float) -> float:
    """E(a, b) = -cos(a - b)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("angles must be finite")
    return -math.cos(a - b)


def _cell_boundaries(a: float, b: float) -> tuple[float, float, float]:
    # joint cells in order (+1,+1), (+1,-1), (-1,+1), (-1,-1) with
    # P(A,B) = (1 - A*B*cos(a-b)) / 4; a uniform deviate u falls in cell
    # (u >= b0) + (u >= b1) + (u >= b2) of the cumulative boundaries, so
    # the clicks agree below b0 and from b2 on
    c = math.cos(a - b)
    p = np.array([(1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4])
    b0, b1, b2 = np.cumsum(p)[:3]
    return float(b0), float(b1), float(b2)


@functools.lru_cache(maxsize=16)
def _word_limits(a: float, b: float) -> tuple[int, int, int]:
    # the boundaries as raw Philox words: Generator.random() is (raw >> 11) *
    # 2**-53, so u < x exactly when raw < ceil(x * 2**53) << 11; cached, as
    # every block of a series asks for the same pair of angles
    return tuple(min(math.ceil(x * 2**53), 2**53) << 11 for x in _cell_boundaries(a, b))


def _at_or_above(raw: np.ndarray, limit: int) -> np.ndarray:
    # no 64-bit word reaches the limit 2**64 of the boundary 1
    return raw >= np.uint64(limit) if limit < 1 << 64 else np.zeros(len(raw), dtype=bool)


_CELL_A = np.array([1, 1, -1, -1], dtype=np.int8)
_CELL_B = np.array([1, -1, 1, -1], dtype=np.int8)


def sample_quantum_batch(
    a: float, b: float, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n outcome pairs; one raw Philox word decides each trial's cell."""
    raw = rng.bit_generator.random_raw(n)
    l0, l1, l2 = _word_limits(a, b)
    cells = _at_or_above(raw, l0).view(np.uint8) + _at_or_above(raw, l1) + _at_or_above(raw, l2)
    return _CELL_A[cells], _CELL_B[cells]


def _count_agreements(a: float, b: float, rng: np.random.Generator, n: int) -> int:
    """How many of the n trials ``sample_quantum_batch`` would draw from the
    same stream have agreeing clicks (cells (+1,+1) and (-1,-1))."""
    raw = rng.bit_generator.random_raw(n)
    l0, _, l2 = _word_limits(a, b)
    return n - int(np.count_nonzero(_at_or_above(raw, l0))) + int(np.count_nonzero(_at_or_above(raw, l2)))


def quantum_correlation_table(angles: AnglePair) -> CorrelationTable:
    return CorrelationTable(
        *(singlet_correlation(angles.alice(i), angles.bob(k)) for i, k in SETTING_PAIRS)
    )


def quantum_chsh(angles: AnglePair) -> float:
    """S for the singlet at the given angles; reaches -2*sqrt(2) at
    TSIRELSON_ANGLES."""
    return chsh_statistic(quantum_correlation_table(angles))


def run_quantum_experiment(
    angles: AnglePair,
    n_per_series: int,
    seed: int,
    *,
    n_workers: int | None = None,
    interleave: bool = False,
) -> TrialLog:
    """Sample the four series from the singlet distribution.

    The log carries no hidden-variable tags, so class analysis rejects it.
    """

    def sampler(pair, rng, count):
        alice, bob = sample_quantum_batch(angles.alice(pair[0]), angles.bob(pair[1]), rng, count)
        return alice, bob, None

    return generate_trial_log(
        sampler, n_per_series, seed, n_workers=n_workers, interleave=interleave
    )


def count_quantum_experiment(
    angles: AnglePair,
    n_per_series: int,
    seed: int,
    *,
    n_workers: int | None = None,
    interleave: bool = False,
) -> RunCounts:
    """The agreement counts of ``run_quantum_experiment``'s four series,
    reduced block by block; they carry no class counts."""

    def count(pair, rng, n):
        return _count_agreements(angles.alice(pair[0]), angles.bob(pair[1]), rng, n)

    agree = count_blocks(count, n_per_series, seed, n_workers=n_workers, interleave=interleave)
    return RunCounts(validate_seed(seed), n_per_series, agree)
