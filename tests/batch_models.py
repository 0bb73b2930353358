"""Test-only LHV models for the per-trial batch route.

No zoo model has batch response twins: each declares its tag distribution,
which compiles to class weights through its scalar responses, once per
declared tag. The routes that ask ``core.responses`` about every drawn tag
are the tag path of a model without a declared distribution and the trial
log of any model. They call ``respond_*_batch`` where a model has them,
and these helpers give the tests such models:

- ``uniform_code_model``: the tag is a behavior code drawn uniformly from
  all 16, so every class meets the batch route. Its twins read the code
  bits with numpy, apart from ``Behavior``'s decoding.
- ``lookup_twins``: a finite-domain model without its declared
  distribution, on twins that index arrays of its scalar responses.
- ``direction_model``: float tags uniform in [0, 2*pi), which never
  repeat, so a trial log of it is as large as a log gets per trial.

``wide_table_model`` declares 2^16 tags, the costliest compile here, and
``declared_model`` declares its class weights pair by pair, as
``tilted_model`` does to break measurement independence by 10^-15.
``LHV_ROUTES`` puts them next to the zoo models, one entry per route a
count can take, ``route_model`` builds each route's model once and
``log_model`` the model its trial logs run on.
"""

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np

from bellcheck.core import SETTING_PAIRS, Behavior, LhvModel
from bellcheck.zoo import MODEL_FACTORIES


def _bit_twin(bit_of_index):
    """A batch response: +1 where bit ``bit_of_index[index]`` of the code is set."""
    return lambda index, lams: np.where(np.asarray(lams) & (1 << bit_of_index[index]), 1, -1).astype(np.int8)


def uniform_code_model() -> LhvModel:
    return LhvModel(
        name="uniform-code",
        respond_alice=lambda index, lam: Behavior.from_code(int(lam)).alice(index),
        respond_bob=lambda index, lam: Behavior.from_code(int(lam)).bob(index),
        sample_lambda=lambda rng, n, pair: rng.integers(0, 16, size=n),
        declares_mi=True,
        enumerate_lambda=lambda pair: [(code, Fraction(1, 16)) for code in range(16)],
        respond_alice_batch=_bit_twin({1: 3, 2: 2}),
        respond_bob_batch=_bit_twin({1: 1, 2: 0}),
        description="tag = behavior code, uniform over all 16",
    )


def direction_model() -> LhvModel:
    """Alice answers sign(cos(a - lam)) at a in (0, pi/2), Bob the opposite
    sign at b in (pi/4, 3*pi/4), for a float direction lam uniform in
    [0, 2*pi); with scalar responses and their batch twins."""
    angles = {"alice": (0.0, math.pi / 2), "bob": (math.pi / 4, 3 * math.pi / 4)}
    scalar = lambda party, sign: lambda index, lam: sign if math.cos(angles[party][index - 1] - lam) >= 0 else -sign
    twin = lambda party, sign: lambda index, lams: np.where(np.cos(angles[party][index - 1] - lams) >= 0, sign, -sign)
    return LhvModel(
        name="direction",
        respond_alice=scalar("alice", 1),
        respond_bob=scalar("bob", -1),
        sample_lambda=lambda rng, n, pair: rng.random(n) * (2 * math.pi),
        declares_mi=True,
        respond_alice_batch=twin("alice", 1),
        respond_bob_batch=twin("bob", -1),
        description="sign(cos(angle - direction)) with a float direction",
    )


def without_distribution(model) -> LhvModel:
    """``model`` with no declared distribution, so that its counts take the
    tag path: through the batch twins when it has them, else the scalar
    responses."""
    return dataclasses.replace(model, enumerate_lambda=None)


def scalar_only(model) -> LhvModel:
    """``model`` with neither a declared distribution nor batch twins."""
    return dataclasses.replace(without_distribution(model), respond_alice_batch=None, respond_bob_batch=None)


def lookup_twins(model) -> LhvModel:
    """A finite-domain ``model`` without its declared distribution, on batch twins
    that look each tag up in arrays of the scalar responses at the
    declared tags. An undeclared tag reads 0, which is no outcome."""
    tags = sorted({tag for pair in SETTING_PAIRS for tag, _ in model.enumerate_lambda(pair)})

    def twin(respond):
        outcomes = {index: np.zeros(tags[-1] + 1, dtype=np.int8) for index in (1, 2)}
        for index, table in outcomes.items():
            table[tags] = [respond(index, tag) for tag in tags]
        return lambda index, lams: outcomes[index][lams]

    return dataclasses.replace(
        without_distribution(model),
        respond_alice_batch=twin(model.respond_alice),
        respond_bob_batch=twin(model.respond_bob),
    )


#: The tags of ``wide_table_model``: 0..WIDE_TAGS - 1.
WIDE_TAGS = 1 << 16


def wide_table_model() -> LhvModel:
    """Tags uniform over 0..WIDE_TAGS - 1; tag t behaves as the code of
    its low four bits xor its high four. The responses read that code's
    bits directly (a1 is bit 3, see Behavior.code), as building a Behavior
    per tag would triple the cost of compiling the 2^16 tags."""
    bit = lambda lam, b: 1 if (int(lam) ^ (int(lam) >> 12)) >> b & 1 else -1
    weight = Fraction(1, WIDE_TAGS)
    return LhvModel(
        name="wide-table",
        respond_alice=lambda index, lam: bit(lam, 4 - index),
        respond_bob=lambda index, lam: bit(lam, 2 - index),
        sample_lambda=lambda rng, n, pair: rng.integers(0, WIDE_TAGS, size=n),
        declares_mi=True,
        enumerate_lambda=lambda pair: [(t, weight) for t in range(WIDE_TAGS)],
        description="tag uniform over 2^16 declared tags",
    )


def declared_model(per_pair, name="declared") -> LhvModel:
    """A model whose tag is a behavior code, declaring for each setting pair
    the weights ``per_pair[pair]`` ({Behavior: rational weight}), which may
    differ between pairs."""
    return LhvModel(
        name=name,
        respond_alice=lambda index, lam: Behavior.from_code(lam).alice(index),
        respond_bob=lambda index, lam: Behavior.from_code(lam).bob(index),
        sample_lambda=lambda rng, n, pair: rng.integers(0, 16, size=n),
        declares_mi=False,
        enumerate_lambda=lambda pair: [(beh.code, w) for beh, w in per_pair[pair].items()],
        description="declared class weights per setting pair",
    )


#: The tilt of ``tilted_model``: 10^-15, below ``core.DOMAIN_SLACK``.
TILT = Fraction(1, 10**15)


def tilted_model() -> LhvModel:
    """Dice-coin's two classes at 1/2 each on pair (1,1), and at 1/2 +- TILT
    on pairs (1,2), (2,1) and (2,2)."""
    half = Fraction(1, 2)
    up, down = Behavior(1, -1, 1, 1), Behavior(1, 1, 1, -1)
    weights = {pair: {up: half + TILT, down: half - TILT} for pair in SETTING_PAIRS[1:]}
    return declared_model({(1, 1): {up: half, down: half}, **weights}, name="tilted")


#: (id, model factory): every zoo model on its declared distribution, each
#: one again on lookup twins, the uniform-code model on its distribution and
#: on its own twins (all 16 classes), one zoo model on its scalar responses
#: alone, and a declared distribution of 2^16 tags
LHV_ROUTES = (
    [(name, MODEL_FACTORIES[name]) for name in sorted(MODEL_FACTORIES)]
    + [(f"{name} twins", lambda name=name: lookup_twins(MODEL_FACTORIES[name]())) for name in sorted(MODEL_FACTORIES)]
    + [("uniform-code", uniform_code_model), ("uniform-code twins", lambda: without_distribution(uniform_code_model()))]
    + [("dice-coin scalar", lambda: scalar_only(MODEL_FACTORIES["dice-coin"]()))]
    + [("uniform 2^16 tags", wide_table_model)]
)


@functools.cache
def route_model(factory) -> LhvModel:
    """One model per ``LHV_ROUTES`` factory, so that each class
    distribution compiles once per test session."""
    return factory()


@functools.cache
def log_model(factory) -> LhvModel:
    """The model that a trial log of a ``LHV_ROUTES`` factory runs on, once
    per test session: a model with batch twins or without a declared
    distribution as it is, any other on its lookup twins. The twins answer
    as the scalar responses do, at numpy speed: a zoo model's scalar
    responses take seconds per log of 49159 trials per series."""
    model = route_model(factory)
    if model.respond_alice_batch is not None or model.class_distribution is None:
        return model
    return lookup_twins(model)
