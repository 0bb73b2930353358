"""Test-only LHV models for the per-trial batch route.

No zoo model has batch response twins: each compiles to a class table
built from its scalar responses. The route that calls ``respond_*_batch``
on every trial (``core.responses``) serves models without a table, and
these helpers give the tests such models:

- ``uniform_code_model``: the tag is a behavior code drawn uniformly from
  all 16, so every class meets the batch route. Its twins read the code
  bits with numpy, apart from ``Behavior``'s decoding.
- ``lookup_twins``: a finite-domain model without its class table, on
  twins that index arrays of its scalar responses.

``wide_table_model`` is the one table model here: it declares every tag
below MAX_TABLE_TAGS, the largest class table a model can have.
``LHV_ROUTES`` puts them next to the zoo models, one entry per route a
count can take, and ``route_model`` builds each route's model once.
"""

import dataclasses
import functools
from fractions import Fraction

import numpy as np

from bellcheck.core import MAX_TABLE_TAGS, SETTING_PAIRS, Behavior, LhvModel
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


def without_table(model) -> LhvModel:
    """``model`` with no declared domain, hence no class table: its trials
    go through the batch twins when it has them, else the scalar responses."""
    return dataclasses.replace(model, enumerate_lambda=None)


def scalar_only(model) -> LhvModel:
    """``model`` with neither a class table nor batch twins."""
    return dataclasses.replace(without_table(model), respond_alice_batch=None, respond_bob_batch=None)


def lookup_twins(model) -> LhvModel:
    """A finite-domain ``model`` without its class table, on batch twins
    that look each tag up in arrays of the scalar responses at the
    declared tags. An undeclared tag reads 0, which is no outcome."""
    tags = sorted({tag for pair in SETTING_PAIRS for tag, _ in model.enumerate_lambda(pair)})

    def twin(respond):
        outcomes = {index: np.zeros(tags[-1] + 1, dtype=np.int8) for index in (1, 2)}
        for index, table in outcomes.items():
            table[tags] = [respond(index, tag) for tag in tags]
        return lambda index, lams: outcomes[index][lams]

    return dataclasses.replace(
        without_table(model),
        respond_alice_batch=twin(model.respond_alice),
        respond_bob_batch=twin(model.respond_bob),
    )


def wide_table_model() -> LhvModel:
    """Tags uniform over 0..MAX_TABLE_TAGS - 1; tag t behaves as the code
    of its low four bits xor its high four."""
    code = lambda lam: Behavior.from_code((int(lam) ^ (int(lam) >> 12)) & 15)
    return LhvModel(
        name="wide-table",
        respond_alice=lambda index, lam: code(lam).alice(index),
        respond_bob=lambda index, lam: code(lam).bob(index),
        sample_lambda=lambda rng, n, pair: rng.integers(0, MAX_TABLE_TAGS, size=n),
        declares_mi=True,
        enumerate_lambda=lambda pair: [(t, Fraction(1, MAX_TABLE_TAGS)) for t in range(MAX_TABLE_TAGS)],
        description="tag uniform over the largest class-table domain",
    )


#: (id, model factory): every zoo model on its class table, each one again
#: on lookup twins, the uniform-code model on its table and on its own
#: twins (all 16 classes), one zoo model on its scalar responses alone, and
#: the largest class table a model can have (2^16 tags)
LHV_ROUTES = (
    [(name, MODEL_FACTORIES[name]) for name in sorted(MODEL_FACTORIES)]
    + [(f"{name} twins", lambda name=name: lookup_twins(MODEL_FACTORIES[name]())) for name in sorted(MODEL_FACTORIES)]
    + [("uniform-code", uniform_code_model), ("uniform-code twins", lambda: without_table(uniform_code_model()))]
    + [("dice-coin scalar", lambda: scalar_only(MODEL_FACTORIES["dice-coin"]()))]
    + [("uniform 2^16 tags", wide_table_model)]
)


@functools.cache
def route_model(factory) -> LhvModel:
    """One model per ``LHV_ROUTES`` factory, so that each class table
    compiles once per test session."""
    return factory()
