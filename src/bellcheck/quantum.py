"""Singlet-state trial sampling: the violating side of the comparison.

Sign convention: E(a, b) = -cos(a - b), i.e. perfect anticorrelation at
equal settings. The opposite (+cos) convention flips the sign of every
correlation and of S; all bound checks here use |S|, so nothing below
depends on the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CorrelationTable, SETTING_PAIRS
from .engine import TrialLog, chsh_statistic, generate_trial_log


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


def _cell_boundaries(a: float, b: float) -> np.ndarray:
    # joint cells in order (+1,+1), (+1,-1), (-1,+1), (-1,-1) with
    # P(A,B) = (1 - A*B*cos(a-b)) / 4; cumulative boundaries for sampling
    c = math.cos(a - b)
    p = np.array([(1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4])
    return np.cumsum(p)[:3]


_CELL_A = np.array([1, 1, -1, -1], dtype=np.int8)
_CELL_B = np.array([1, -1, 1, -1], dtype=np.int8)


def sample_quantum_batch(
    a: float, b: float, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n outcome pairs; one uniform deviate decides each trial's cell."""
    u = rng.random(n)
    cells = np.searchsorted(_cell_boundaries(a, b), u, side="right")
    return _CELL_A[cells], _CELL_B[cells]


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
