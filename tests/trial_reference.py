"""A per-trial reference for the count path, and the checks that compare them.

Under stream scheme v4 the count path does not decide trials one by one.
``count_experiment`` draws each series' class counts at once from the
model's compiled ``class_distribution`` when the model declares its
distribution (``streams.draw_counts``: no draw for a pair with one class,
one binomial per series for two, one multinomial per series for more),
and only a model without one draws a tag per trial and counts the codes of
its batch responses. ``count_quantum_experiment`` goes through the same
loop with the singlet's two outcomes (disagree, agree), weighted by its
integer word limits: one binomial draw per series, none at
cos(a - b) = +-1. The reference
shares none of those kernels. It draws each block from
``streams.trial_stream``, the definition of a block's stream, and decides
every trial on its own:

- An LHV trial draws its tag through ``sample_lambda``. Its clicks come
  from the scalar ``respond_alice`` and ``respond_bob`` at the measured
  settings, and its class from the responses at all four settings.
- A singlet trial takes one ``random()`` deviate and finds the cell
  (A, B) it falls in, with the cells in the order (+1,+1), (+1,-1),
  (-1,+1), (-1,-1) and P(A, B) = (1 - A*B*cos(a - b)) / 4.

For a model without a declared distribution both routes draw the same
tags, so their counts must be equal (``assert_same_counts``). Otherwise the
two routes draw different samples of one distribution, and
``assert_counts_follow`` checks each against the exact weights:
``reference_class_weights`` for an LHV model, (1 -+ cos(a - b)) / 2 for the
singlet. ``lhv_reference_clicks`` gives an LHV model's per-trial clicks,
which a trial log must hold. ``count_agreements`` is the singlet's
one-word-per-trial sampler, which the tests of the word limits read.
"""

import collections
import functools
import math
from fractions import Fraction

import numpy as np

from bellcheck.core import PAIR_CODES, SETTING_PAIRS, Behavior
from bellcheck.engine import RunCounts
from bellcheck.quantum import _word_limits
from bellcheck.streams import iter_blocks, trial_stream

#: The count loop's seeds: both ends of the range and 20 others.
DRAW_SEEDS = [0, 2**64 - 1] + [int(s) for s in np.random.default_rng(20).integers(0, 2**64, 20, dtype=np.uint64)]

#: Chance at most that one run's frequencies of a pair leave their band in
#: ``assert_counts_follow``, when they follow the weights.
RUN_DELTA = 0.01

#: Chance at most that ``assert_counts_follow`` fails on counts that follow
#: the weights.
FALSE_FAILURE = 1e-9


def assert_same_counts(got, want):
    assert (got.seed, got.n_per_series) == (want.seed, want.n_per_series)
    assert got.agree == want.agree
    if want.classes is None:
        assert got.classes is None
    else:
        for pair in SETTING_PAIRS:
            assert np.array_equal(got.classes[pair], want.classes[pair]), pair


def _band(n, classes, delta):
    """Hoeffding half-width within which each of ``classes`` frequencies of
    n independent draws stays, all at once, with probability >= 1 - delta:
    P(|f - w| >= t) <= 2 exp(-2 n t^2) per class, and a union bound."""
    return math.sqrt(math.log(2 * classes / delta) / (2 * n))


def _allowed(runs, delta, failure):
    """The least x with P(Binomial(runs, delta) > x) <= failure."""
    tail = 1.0
    for x in range(runs + 1):
        tail -= math.comb(runs, x) * delta**x * (1 - delta) ** (runs - x)
        if tail <= failure:
            return x
    return runs


def assert_counts_follow(runs, weights):
    """Check that ``runs`` (one dict per run: setting pair -> counts of each
    class in one series) are independent draws of Multinomial(n, weights[pair]).

    Per pair: no run counts a class of weight 0; at most ``_allowed`` runs
    have a class frequency outside its band at ``RUN_DELTA``, which a run
    leaves with probability at most RUN_DELTA; and the frequencies pooled
    over all runs stay within their band at a share of ``FALSE_FAILURE``.
    Runs that follow the weights fail with probability at most
    FALSE_FAILURE.
    """
    share = FALSE_FAILURE / (2 * len(weights))
    for pair, w in weights.items():
        w = np.array([float(x) for x in w])
        support = w > 0
        table = np.array([run[pair] for run in runs], dtype=np.int64)
        n = table.sum(axis=1)
        assert np.all(n == n[0]), pair
        assert not table[:, ~support].any(), f"pair {pair}: a class of weight 0 was drawn"
        deviation = np.abs(table / n[0] - w)[:, support]
        outside = int(np.count_nonzero((deviation > _band(n[0], support.sum(), RUN_DELTA)).any(axis=1)))
        assert outside <= _allowed(len(runs), RUN_DELTA, share), f"pair {pair}: {outside} of {len(runs)} runs"
        pooled = np.abs(table.sum(axis=0) / n.sum() - w)[support]
        assert pooled.max() <= _band(n.sum(), support.sum(), share), f"pair {pair}: pooled deviation {pooled.max()}"


def class_runs(counts):
    """The per-pair class counts of each ``RunCounts`` in ``counts``."""
    return [run.classes for run in counts]


def agreement_runs(counts):
    """The per-pair (disagreements, agreements) of each ``RunCounts``."""
    return [{p: (run.n_per_series - a, a) for p, a in run.agree.items()} for run in counts]


def singlet_weights(angles):
    """Per setting pair, the exact (P(disagree), P(agree)) of the singlet."""
    out = {}
    for i, k in SETTING_PAIRS:
        agree = (1 - math.cos(angles.alice(i) - angles.bob(k))) / 2
        out[i, k] = (1 - agree, agree)
    return out


@functools.cache
def reference_class_weights(model):
    """Per setting pair, the exact weight of each of the 16 classes, in code
    order: every declared tag's rational weight added to the class of its
    four scalar responses."""
    code = functools.cache(lambda tag: Behavior(
        model.respond_alice(1, tag), model.respond_alice(2, tag), model.respond_bob(1, tag), model.respond_bob(2, tag)
    ).code)
    weights = {}
    for pair in SETTING_PAIRS:
        weights[pair] = [Fraction(0)] * 16
        # summed once per distinct (class, weight), keyed on the weight's
        # integers: tags tend to share one weight, and hashing a Fraction
        # costs more than the tuple
        for (c, num, den), count in collections.Counter(
            (code(tag), weight.numerator, weight.denominator) for tag, weight in model.enumerate_lambda(pair)
        ).items():
            weights[pair][c] += Fraction(count * num, den)
    return weights


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


def lhv_reference_clicks(model, n, seed):
    """Per setting pair, the (alice, bob) clicks of every trial, as lists:
    the scalar responses at the measured settings and each drawn tag."""
    alice, bob = functools.cache(model.respond_alice), functools.cache(model.respond_bob)  # pure, and tags repeat
    clicks = {}
    for i, k in SETTING_PAIRS:
        tags = [lam for rng, count in _blocks(seed, (i, k), n)
                for lam in np.asarray(model.sample_lambda(rng, count, (i, k))).tolist()]
        clicks[i, k] = [alice(i, lam) for lam in tags], [bob(k, lam) for lam in tags]
    return clicks


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


def count_agreements(a: float, b: float, rng: np.random.Generator, n: int) -> int:
    """How many of n singlet trials drawn from ``rng`` have agreeing clicks
    (cells (+1,+1) and (-1,-1)); one raw word decides each trial's cell.

    The clicks disagree exactly when l0 <= raw < l2, that is when
    raw - l0 < l2 - l0 in wrap-around uint64 arithmetic: one comparison per
    word. At cos(a - b) = 1 the limits are 0 and 2**64, a width no uint64
    holds, and every word lies between them. The count path draws the
    disagreements of a series as Binomial(n, (l2 - l0) / 2**64), the share
    of words this counts.
    """
    l0, l2 = _word_limits(a, b)
    if l2 - l0 == 1 << 64:
        return 0
    raw = rng.bit_generator.random_raw(n)
    raw -= np.uint64(l0)
    return n - int(np.count_nonzero(raw < np.uint64(l2 - l0)))
