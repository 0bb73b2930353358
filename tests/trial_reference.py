"""A per-trial reference for the count path.

``count_experiment`` reduces each block to a tag histogram folded through
the class table, or to the codes of a model's batch responses, and
``count_quantum_experiment`` compares raw 64-bit words with integer
limits. The reference shares none of those kernels. It draws each block
from ``streams.trial_stream``, the definition of a block's stream, and
decides every trial on its own:

- An LHV trial draws its tag through ``sample_lambda``. Its clicks come
  from the scalar ``respond_alice`` and ``respond_bob`` at the measured
  settings, and its class from the responses at all four settings.
- A singlet trial takes one ``random()`` deviate and finds the cell
  (A, B) it falls in, with the cells in the order (+1,+1), (+1,-1),
  (-1,+1), (-1,-1) and P(A, B) = (1 - A*B*cos(a - b)) / 4.

Each function returns the ``RunCounts`` that the count path must give for
the same model or angles, n and seed; ``assert_same_counts`` compares two.
"""

import functools
import math

import numpy as np

from bellcheck.core import PAIR_CODES, SETTING_PAIRS, Behavior
from bellcheck.engine import RunCounts
from bellcheck.streams import iter_blocks, trial_stream


def assert_same_counts(got, want):
    assert (got.seed, got.n_per_series) == (want.seed, want.n_per_series)
    assert got.agree == want.agree
    if want.classes is None:
        assert got.classes is None
    else:
        for pair in SETTING_PAIRS:
            assert np.array_equal(got.classes[pair], want.classes[pair]), pair


def _blocks(seed, pair, n):
    """(stream, trial count) for each block of one pair's series, in order."""
    for block, start, stop in iter_blocks(n):
        yield trial_stream(seed, PAIR_CODES[pair], block), stop - start


def lhv_reference_counts(model, n, seed) -> RunCounts:
    @functools.cache  # the responses are pure, and tags repeat
    def respond(party, index, lam):
        return getattr(model, f"respond_{party}")(index, lam)

    agree, classes = {}, {}
    for i, k in SETTING_PAIRS:
        agree[i, k], classes[i, k] = 0, np.zeros(16, dtype=np.int64)
        for rng, count in _blocks(seed, (i, k), n):
            for lam in np.asarray(model.sample_lambda(rng, count, (i, k))).tolist():
                agree[i, k] += respond("alice", i, lam) == respond("bob", k, lam)
                quadruple = [respond(party, index, lam) for party in ("alice", "bob") for index in (1, 2)]
                classes[i, k][Behavior(*quadruple).code] += 1
    return RunCounts(seed, n, agree, classes)


def singlet_reference_counts(angles, n, seed) -> RunCounts:
    agree = {}
    for i, k in SETTING_PAIRS:
        c = math.cos(angles.alice(i) - angles.bob(k))
        cells, upper, edge = [], [], 0.0
        for a in (1, -1):
            for b in (1, -1):
                edge += (1 - a * b * c) / 4
                cells.append((a, b))
                upper.append(edge)
        agree[i, k] = 0
        for rng, count in _blocks(seed, (i, k), n):
            for u in rng.random(count).tolist():
                # the first cell whose upper edge lies above u; the last
                # cell takes every u from the third edge on
                a, b = cells[sum(u >= e for e in upper[:3])]
                agree[i, k] += a == b
    return RunCounts(seed, n, agree)
