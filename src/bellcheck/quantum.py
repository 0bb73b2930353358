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
from .engine import RunCounts, chsh_statistic, count_blocks
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
    if not math.isfinite(a - b):
        raise ValueError(f"angles {a!r} and {b!r} must be finite with a finite difference")
    return -math.cos(a - b)


def _cell_boundaries(a: float, b: float) -> tuple[float, float, float]:
    # joint cells in order (+1,+1), (+1,-1), (-1,+1), (-1,-1) with
    # P(A,B) = (1 - A*B*cos(a-b)) / 4; a uniform deviate u falls in cell
    # (u >= b0) + (u >= b1) + (u >= b2) of the cumulative boundaries, so
    # the clicks agree below b0 and from b2 on
    c = -singlet_correlation(a, b)
    p = np.array([(1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4])
    b0, b1, b2 = np.cumsum(p)[:3]
    return float(b0), float(b1), float(b2)


@functools.lru_cache(maxsize=16)
def _word_limits(a: float, b: float) -> tuple[int, int]:
    # the first and last boundaries as raw words: Generator.random() is
    # (raw >> 11) * 2**-53, so u < x exactly when raw < ceil(x * 2**53) << 11;
    # cached, as every block of a series asks for the same pair of angles
    b0, _, b2 = _cell_boundaries(a, b)
    return tuple(min(math.ceil(x * 2**53), 2**53) << 11 for x in (b0, b2))


def _count_agreements(a: float, b: float, rng: np.random.Generator, n: int) -> int:
    """How many of n singlet trials drawn from ``rng`` have agreeing clicks
    (cells (+1,+1) and (-1,-1)); one raw word decides each trial's cell.

    The clicks disagree exactly when l0 <= raw < l2, that is when
    raw - l0 < l2 - l0 in wrap-around uint64 arithmetic: one comparison per
    word. At cos(a - b) = 1 the limits are 0 and 2**64, a width no uint64
    holds, and every word lies between them.
    """
    l0, l2 = _word_limits(a, b)
    if l2 - l0 == 1 << 64:
        return 0
    raw = rng.bit_generator.random_raw(n)
    raw -= np.uint64(l0)
    return n - int(np.count_nonzero(raw < np.uint64(l2 - l0)))


def quantum_correlation_table(angles: AnglePair) -> CorrelationTable:
    return CorrelationTable(
        *(singlet_correlation(angles.alice(i), angles.bob(k)) for i, k in SETTING_PAIRS)
    )


def quantum_chsh(angles: AnglePair) -> float:
    """S for the singlet at the given angles; reaches -2*sqrt(2) at
    TSIRELSON_ANGLES."""
    return chsh_statistic(quantum_correlation_table(angles))


def count_quantum_experiment(angles: AnglePair, n_per_series: int, seed: int) -> RunCounts:
    """Sample the four series from the singlet distribution, reduced block
    by block to agreement counts; they carry no class counts."""

    def count(pair, rng, n):
        return _count_agreements(angles.alice(pair[0]), angles.bob(pair[1]), rng, n)

    agree = count_blocks(count, n_per_series, seed)
    return RunCounts(validate_seed(seed), n_per_series, agree)
