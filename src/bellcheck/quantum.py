"""Singlet-state sampling: the violating side of the comparison.

A singlet trial's clicks disagree on l2 - l0 of the 2**64 raw words
(``_word_limits``), so under stream scheme v4 a series is the distribution
(disagree, agree) with weight (l2 - l0) / 2**64 on disagree: one binomial
draw per series, none at cos(a - b) = +-1.

Sign convention: E(a, b) = -cos(a - b), i.e. perfect anticorrelation at
equal settings. The opposite (+cos) convention flips the sign of every
correlation and of S; all bound checks here use |S|, so nothing below
depends on the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CorrelationTable, SETTING_PAIRS
from .engine import RunCounts, check_run, chsh_statistic
from .streams import draw_counts


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
    # the clicks agree below b0 and from b2 on; summed left to right, as
    # the word limits, and so every report, depend on each sum's rounding
    c = -singlet_correlation(a, b)
    b0 = (1 - c) / 4
    b1 = b0 + (1 + c) / 4
    return b0, b1, b1 + (1 + c) / 4


def _word_limits(a: float, b: float) -> tuple[int, int]:
    # the first and last boundaries as raw words: Generator.random() is
    # (raw >> 11) * 2**-53, so u < x exactly when raw < ceil(x * 2**53) << 11
    b0, _, b2 = _cell_boundaries(a, b)
    return tuple(min(math.ceil(x * 2**53), 2**53) << 11 for x in (b0, b2))


def quantum_correlation_table(angles: AnglePair) -> CorrelationTable:
    return CorrelationTable(
        *(singlet_correlation(angles.alice(i), angles.bob(k)) for i, k in SETTING_PAIRS)
    )


def quantum_chsh(angles: AnglePair) -> float:
    """S for the singlet at the given angles; reaches -2*sqrt(2) at
    TSIRELSON_ANGLES."""
    return chsh_statistic(quantum_correlation_table(angles))


def count_quantum_experiment(angles: AnglePair, n_per_series: int, seed: int) -> RunCounts:
    """Sample the four series from the singlet distribution as agreement
    counts, without class counts. A pair's disagreement probability
    (l2 - l0) / 2**64 is exact in a float: l2 - l0 is a multiple of 2**11
    below 2**64, or 2**64 at cos(a - b) = 1, where every trial disagrees."""
    n_per_series, seed = check_run(n_per_series, seed)
    limits = {(i, k): _word_limits(angles.alice(i), angles.bob(k)) for i, k in SETTING_PAIRS}
    weights = {pair: (l2 - l0, 2**64 - (l2 - l0)) for pair, (l0, l2) in limits.items()}
    counts = draw_counts((weights, 2**64), n_per_series, seed)
    return RunCounts(seed, n_per_series, {pair: int(counts[pair][1]) for pair in SETTING_PAIRS})
