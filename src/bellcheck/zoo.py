"""Canonical hidden-variable models used by the tests, demos and CLI.

All three models are defined by scalar responses on finite tag domains,
so their exact class weights can be enumerated: each compiles to a class
distribution, evaluating its responses once per declared tag. Even the
"continuous" angle model lives on a grid. ``get_model`` keeps one model
per (factory, angles) per process; calling a factory builds a fresh one,
and a one-shot CLI process still pays the compile (a few ms for
cosine-sign).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .core import Behavior, LhvModel

_TWO_PI = 2 * math.pi

#: Directions on cosine-sign's grid.
_GRID = 720


def dice_coin_model() -> LhvModel:
    """Die at the source, coins at the stations.

    The source rolls a fair die, lam in {1..6}. Each station maps its
    setting to a coin value (index 1 -> +1, index 2 -> -1) and answers
    A(a, lam) = a**lam on Alice's side, B(b, lam) = b**(lam + 1) on
    Bob's. Exact correlations are (1, 0, 0, -1), so S = 0, and only two
    behavior classes occur (odd lam vs even lam).
    """

    def respond_alice(index: int, lam) -> int:
        if index == 1:
            return 1
        return -1 if lam % 2 else 1

    def respond_bob(index: int, lam) -> int:
        if index == 1:
            return 1
        return 1 if lam % 2 else -1

    return LhvModel(
        name="dice-coin",
        respond_alice=respond_alice,
        respond_bob=respond_bob,
        sample_lambda=lambda rng, n, pair: rng.integers(1, 7, size=n),
        declares_mi=True,
        enumerate_lambda=lambda pair: [(k, Fraction(1, 6)) for k in range(1, 7)],
        description="die at the source (lam in 1..6), A = a**lam, B = b**(lam+1); S = 0",
    )


def cosine_sign_model(
    a1: float = 0.0,
    a2: float = math.pi / 2,
    b1: float = math.pi / 4,
    b2: float = 3 * math.pi / 4,
) -> LhvModel:
    """Sign-of-cosine responses against a shared random direction.

    The tag is a grid point t in {0..719} standing for the direction
    2*pi*t/720; Alice answers the sign of cos(angle - direction) (ties
    at zero count as +1), Bob the opposite sign at his angle. Perfectly
    anticorrelated at equal angles, and |S| stays within 2 like any
    single-distribution model. Settings must carry angles; they default
    to the CHSH-optimal quadruple.
    """
    alice_angles = {1: a1, 2: a2}
    bob_angles = {1: b1, 2: b2}
    for v in (a1, a2, b1, b2):
        if not math.isfinite(v):
            raise ValueError("model angles must be finite")
    weight = Fraction(1, _GRID)

    def direction(lam) -> float:
        return _TWO_PI * lam / _GRID

    def respond_alice(index: int, lam) -> int:
        return 1 if math.cos(alice_angles[index] - direction(lam)) >= 0 else -1

    def respond_bob(index: int, lam) -> int:
        return -1 if math.cos(bob_angles[index] - direction(lam)) >= 0 else 1

    return LhvModel(
        name="cosine-sign",
        respond_alice=respond_alice,
        respond_bob=respond_bob,
        sample_lambda=lambda rng, n, pair: rng.integers(0, _GRID, size=n),
        declares_mi=True,
        enumerate_lambda=lambda pair: [(t, weight) for t in range(_GRID)],
        description="sign(cos(angle - shared direction)) responses on a 720-point grid",
    )


#: Setting pair -> behavior the conspiring source emits for it. Chosen so
#: the four series report E = (1, -1, 1, 1), i.e. S* = 4, with four
#: disjoint point masses (maximally setting-dependent frequencies).
_CONSPIRACY_BEHAVIOR = {
    (1, 1): Behavior(1, -1, 1, -1),
    (1, 2): Behavior(1, -1, -1, -1),
    (2, 1): Behavior(-1, 1, 1, 1),
    (2, 2): Behavior(-1, -1, -1, -1),
}
_CONSPIRACY_CODE = {pair: beh.code for pair, beh in _CONSPIRACY_BEHAVIOR.items()}


def conspiracy_model() -> LhvModel:
    """A source that reads the settings before choosing the tag.

    The tag is simply a behavior code and the responses decode it, so
    the model is local and deterministic; only measurement independence
    fails. Each setting pair gets the code that drives its term of S* to
    the favourable sign, which lands the four-series statistic on the
    algebraic maximum S* = 4.
    """

    def respond_alice(index: int, lam) -> int:
        return Behavior.from_code(int(lam)).alice(index)

    def respond_bob(index: int, lam) -> int:
        return Behavior.from_code(int(lam)).bob(index)

    def sample(rng, n, pair):
        return np.full(n, _CONSPIRACY_CODE[tuple(pair)], dtype=np.int64)

    return LhvModel(
        name="conspiracy",
        respond_alice=respond_alice,
        respond_bob=respond_bob,
        sample_lambda=sample,
        declares_mi=False,
        enumerate_lambda=lambda pair: [(_CONSPIRACY_CODE[tuple(pair)], Fraction(1))],
        description="setting-dependent source: one point-mass class per pair, S* = 4",
    )


MODEL_FACTORIES = {
    "dice-coin": dice_coin_model,
    "cosine-sign": cosine_sign_model,
    "conspiracy": conspiracy_model,
}


def available_models() -> list[str]:
    return sorted(MODEL_FACTORIES)


def get_model(name: str, angles=None) -> LhvModel:
    """Resolve a zoo model by name, compiled once per (factory, angles) in
    the process. ``angles`` (an AnglePair) applies only to the
    angle-parameterized cosine-sign model."""
    if name not in MODEL_FACTORIES:
        raise ValueError(f"unknown model {name!r}; available: {', '.join(available_models())}")
    if angles is not None and name != "cosine-sign":
        raise ValueError(f"model {name!r} does not take angles")
    return _built(MODEL_FACTORIES[name], None if angles is None else (angles.a1, angles.a2, angles.b1, angles.b2))


@functools.lru_cache(maxsize=64)
def _built(factory, angles) -> LhvModel:
    return factory() if angles is None else factory(*angles)
