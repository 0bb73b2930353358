"""The LHV count path (`count_experiment`) against the trial-log path
(`run_experiment`), and the singlet's raw-word limits.

A model without a declared distribution takes the same blocks and tags on
both paths, and both reduce each block to integer counts as it is drawn;
the log path also keeps every click and tag. Their counts must be equal
for every such model route (batch twins, scalar responses; the batch twins
belong to the test-only models of ``batch_models``). A model that
declares its distribution draws its count path's class counts from it
(stream scheme v4), while the log still draws its tags through
``sample_lambda`` (on batch twins, see ``batch_models.log_model``): both
must follow the declared distribution
(``trial_reference.assert_counts_follow``). Every route is checked at
block-edge sizes. The singlet has no trial log: its counts
follow the singlet's probabilities as the per-trial reference of
``trial_reference`` does, and the threshold tests feed its
raw-word limits words on both sides of every limit. The count loop
(``streams.draw_counts``, stream scheme v4) must give exactly the counts of
one draw per series on block 0's ``trial_stream``: a multinomial over a
model's classes of positive weight, a binomial at the singlet's
disagreement probability. Up to ``BLOCK_SIZE`` trials that is the
block-by-block draw of stream scheme v3. The memory tests pin that the
count path holds no trial log and that building a log costs little more
than the log itself.
"""

import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_models import LHV_ROUTES, log_model, lookup_twins, route_model, scalar_only, without_distribution
from bellcheck.core import ALL_BEHAVIORS, PAIR_CODES, SETTING_PAIRS, Behavior, LhvModel
from bellcheck.engine import (
    RunCounts,
    class_frequencies,
    count_experiment,
    run_experiment,
    violation_p_value,
)
from bellcheck import core, engine, quantum, streams
from bellcheck.quantum import TSIRELSON_ANGLES, AnglePair, _cell_boundaries, _word_limits, count_quantum_experiment
from bellcheck.streams import BLOCK_SIZE, check_run, draw_counts, trial_stream
from bellcheck.zoo import MODEL_FACTORIES
from trial_reference import (
    DRAW_SEEDS,
    agreement_runs,
    assert_counts_follow,
    assert_same_counts,
    class_runs,
    count_agreements,
    reference_class_weights,
    singlet_reference_counts,
    singlet_weights,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


SIZES = [1, BLOCK_SIZE - 1, BLOCK_SIZE + 1, 49159]

#: Seeds of the count path in each distribution check.
SEEDS = range(200)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("factory", [r[1] for r in LHV_ROUTES], ids=[r[0] for r in LHV_ROUTES])
def test_lhv_counts_match_the_trial_log(factory, n):
    model, logged = route_model(factory), log_model(factory)
    log = run_experiment(logged, n, seed=23)
    if model.class_distribution is None:
        assert_same_counts(count_experiment(model, n, seed=23), log)
        return
    weights = reference_class_weights(model)
    assert_counts_follow(class_runs([log]), weights)
    assert_counts_follow(class_runs(count_experiment(model, n, seed) for seed in SEEDS), weights)


@pytest.mark.parametrize("n", [1, BLOCK_SIZE + 1])
@pytest.mark.parametrize("angles", [TSIRELSON_ANGLES, AnglePair(0.3, 1.9, -0.8, 2.6)], ids=["tsirelson", "custom"])
def test_quantum_counts_match_the_trial_log(angles, n):
    # the singlet's trial-by-trial counts come from the per-trial reference
    weights = singlet_weights(angles)
    assert_counts_follow(agreement_runs([singlet_reference_counts(angles, n, 29)]), weights)
    assert_counts_follow(agreement_runs(count_quantum_experiment(angles, n, seed) for seed in SEEDS), weights)


#: The count loop's differential. Series of one block: its edges, a few
#: small sizes and 20 others. Longer series: just past a block, the golden
#: size, 2^26 and the largest n a run takes. Seeds: DRAW_SEEDS.
ONE_BLOCK_SIZES = [1, 2, 5, 1000, BLOCK_SIZE - 1, BLOCK_SIZE] + sorted(
    int(k) for k in np.random.default_rng(21).integers(1, BLOCK_SIZE, 20)
)
LONG_SIZES = [BLOCK_SIZE + 1, 49159, 1 << 26, BLOCK_SIZE << 32]

#: conspiracy, dice-coin and cosine-sign have 1, 2 and 8 classes of
#: positive weight per setting pair.
DRAW_MODELS = {"conspiracy": 1, "dice-coin": 2, "cosine-sign": 8}

#: The singlet at 0 < p < 1 and at cos(a - b) = +-1, where p is 1 or 0.
DRAW_ANGLES = {
    "tsirelson": TSIRELSON_ANGLES, "custom": AnglePair(0.3, 1.9, -0.8, 2.6),
    "cos +-1": AnglePair(0.0, math.pi, 0.0, math.pi),
}


def drawn_classes(model, n, seed, block_size):
    """Per setting pair, the class counts of one multinomial draw per block
    of ``block_size`` trials, block j on ``trial_stream(seed, code, j)``,
    over the classes of positive weight: stream scheme v3 at ``BLOCK_SIZE``,
    v4 at n."""
    nums, d = model.class_distribution
    classes = {}
    for pair in SETTING_PAIRS:
        support = [c for c in range(16) if nums[pair][c]]
        pvals = np.array([nums[pair][c] / d for c in support])
        classes[pair] = np.zeros(16, dtype=np.int64)
        for block, start in enumerate(range(0, n, block_size)):
            k = min(block_size, n - start)
            classes[pair][support] += trial_stream(seed, PAIR_CODES[pair], block).multinomial(k, pvals)
    return classes


def drawn_agreements(angles, n, seed, block_size):
    """Per setting pair, n minus the disagreements of one binomial draw per
    block of ``block_size`` trials, block j on ``trial_stream(seed, code,
    j)``, at the share (l2 - l0) / 2**64: stream scheme v3 at
    ``BLOCK_SIZE``, v4 at n."""
    agree = {}
    for pair in SETTING_PAIRS:
        l0, l2 = _word_limits(angles.alice(pair[0]), angles.bob(pair[1]))
        draws = (trial_stream(seed, PAIR_CODES[pair], block).binomial(min(block_size, n - start), (l2 - l0) / 2**64)
                 for block, start in enumerate(range(0, n, block_size)))
        agree[pair] = n - sum(map(int, draws))
    return agree


@pytest.mark.parametrize("n", ONE_BLOCK_SIZES)
@pytest.mark.parametrize("name", DRAW_MODELS)
def test_counts_of_one_block_equal_stream_scheme_v3(name, n):
    """Up to ``BLOCK_SIZE`` trials a series is one block, which v3 drew
    as one multinomial on block 0's stream: v4 keeps those counts."""
    model = MODEL_FACTORIES[name]()
    nums, _ = model.class_distribution
    assert {sum(map(bool, nums[pair])) for pair in SETTING_PAIRS} == {DRAW_MODELS[name]}
    for seed in DRAW_SEEDS:
        got = count_experiment(model, n, seed).classes
        want = drawn_classes(model, n, seed, BLOCK_SIZE)
        for pair in SETTING_PAIRS:
            assert np.array_equal(got[pair], want[pair]), (seed, pair)


@pytest.mark.parametrize("n", ONE_BLOCK_SIZES)
@pytest.mark.parametrize("angles", DRAW_ANGLES.values(), ids=DRAW_ANGLES)
def test_singlet_counts_of_one_block_equal_stream_scheme_v3(angles, n):
    for seed in DRAW_SEEDS:
        assert count_quantum_experiment(angles, n, seed).agree == drawn_agreements(angles, n, seed, BLOCK_SIZE), seed


@pytest.mark.parametrize("n", LONG_SIZES)
@pytest.mark.parametrize("name", DRAW_MODELS)
def test_a_long_series_is_one_multinomial_on_block_0(name, n):
    model = MODEL_FACTORIES[name]()
    for seed in DRAW_SEEDS:
        got = count_experiment(model, n, seed).classes
        want = drawn_classes(model, n, seed, n)
        for pair in SETTING_PAIRS:
            assert np.array_equal(got[pair], want[pair]), (seed, pair)


@pytest.mark.parametrize("n", LONG_SIZES)
@pytest.mark.parametrize("angles", DRAW_ANGLES.values(), ids=DRAW_ANGLES)
def test_a_long_singlet_series_is_one_binomial_on_block_0(angles, n):
    for seed in DRAW_SEEDS:
        assert count_quantum_experiment(angles, n, seed).agree == drawn_agreements(angles, n, seed, n), seed


def test_one_outcome_pairs_key_no_stream(monkeypatch):
    # conspiracy has one class per pair, the singlet one cell at cos = +-1
    def no_stream(*args):
        raise AssertionError("stream keyed")

    monkeypatch.setattr(streams, "_pool_stream", no_stream)
    classes = count_experiment(MODEL_FACTORIES["conspiracy"](), 49159, seed=3).classes
    assert all(max(classes[pair]) == 49159 for pair in SETTING_PAIRS)
    agree = count_quantum_experiment(DRAW_ANGLES["cos +-1"], 49159, seed=3).agree
    assert agree == {(1, 1): 0, (1, 2): 49159, (2, 1): 49159, (2, 2): 0}


def test_one_outcome_runs_build_no_seed_sequence(monkeypatch):
    # the seed's pool is taken at the first pair that draws, so a run of
    # sole outcomes builds no SeedSequence at all; a drawing run does
    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("SeedSequence built")

    model = MODEL_FACTORIES["conspiracy"]()
    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    assert sum(count_experiment(model, 49159, seed=3).classes[(1, 1)]) == 49159
    assert count_quantum_experiment(DRAW_ANGLES["cos +-1"], 49159, seed=3).agree[(1, 2)] == 49159
    with pytest.raises(AssertionError, match="SeedSequence built"):
        count_quantum_experiment(TSIRELSON_ANGLES, 49159, seed=3)


#: Sizes of the one-draw path's stated-rate check: one past three blocks,
#: and 2^26, which v3 drew in 4,096 blocks.
ONE_DRAW_SIZES = [49159, 1 << 26]


@pytest.mark.parametrize("n", ONE_DRAW_SIZES)
@pytest.mark.parametrize("name", ["dice-coin", "cosine-sign", "quantum"])
def test_one_draw_series_follow_their_distribution(name, n):
    """Over 200 seeds, a series drawn at once follows its distribution as
    ``assert_counts_follow`` states: the zoo models' class weights, and
    the singlet's agreement probabilities at Tsirelson angles."""
    if name == "quantum":
        runs = agreement_runs(count_quantum_experiment(TSIRELSON_ANGLES, n, seed) for seed in SEEDS)
        assert_counts_follow(runs, singlet_weights(TSIRELSON_ANGLES))
    else:
        model = MODEL_FACTORIES[name]()
        assert_counts_follow(class_runs(count_experiment(model, n, seed) for seed in SEEDS), reference_class_weights(model))


def test_a_two_outcome_multinomial_is_one_binomial():
    """The count loop draws a two-outcome block as ``binomial(k, w)``, which
    is what numpy's ``multinomial(k, [w, 1 - w])`` draws for its first
    count, from the same stream words. A numpy release that draws it
    otherwise fails here, and the two-outcome draws would change bytes."""
    cases = np.random.default_rng(200)
    ks = [0, 1, 30, BLOCK_SIZE] + [int(10 ** x) for x in cases.uniform(0, 6, 196)]
    ws = [0.0, 0.5, 1.0, 2**-53] + cases.random(196).tolist()
    for case, (k, w) in enumerate(zip(ks, ws, strict=True)):
        a, b = (np.random.Generator(np.random.PCG64DXSM(case)) for _ in range(2))
        assert a.multinomial(k, [w, 1 - w])[0] == b.binomial(k, w), (k, w)
        assert a.bit_generator.state == b.bit_generator.state, (k, w)


def test_lhv_log_agreements_are_the_clicks_that_agree():
    # a trial log's agreements are read off its class counts, as on the
    # count path; that reading must give the clicks that agree
    for name, factory in LHV_ROUTES:
        log = run_experiment(log_model(factory), 3000, seed=5)
        assert log.agree == {pair: np.count_nonzero(s.alice == s.bob) for pair, s in log.series.items()}, name


def test_quantum_counts_have_no_classes():
    counts = count_quantum_experiment(TSIRELSON_ANGLES, 100, seed=0)
    with pytest.raises(ValueError, match="class"):
        class_frequencies(counts)


def test_tag_blocks_call_engine_behavior_codes_on_the_calling_thread(monkeypatch):
    # a traced benchmark run wraps engine.behavior_codes in a recorder that
    # must run on its own thread; the tag path and the trial log classify
    # each block through that name, on the caller's thread
    threads = []

    def recording(*args):
        threads.append(threading.get_ident())
        return core.behavior_codes(*args)

    monkeypatch.setattr(engine, "behavior_codes", recording)
    model = without_distribution(MODEL_FACTORIES["dice-coin"]())
    counts = count_experiment(model, 1000, seed=9)
    assert len(threads) == 4
    assert_same_counts(run_experiment(model, 1000, seed=9), counts)
    assert threads == [threading.get_ident()] * 8


def test_n_past_one_word_block_indices_is_rejected(monkeypatch):
    # at BLOCK_SIZE * 2**32 + 1 trials the last block index needs two
    # uint32 words; the sampler, the compile and the singlet's limits fail
    # loudly if the run starts anyway
    def no_sampling(*args):
        raise AssertionError("sampled")

    model = LhvModel(name="never-sampled", respond_alice=lambda i, lam: 1, respond_bob=lambda i, lam: 1,
                     sample_lambda=no_sampling, declares_mi=True)
    declared = LhvModel(name="never-compiled", respond_alice=lambda i, lam: 1, respond_bob=lambda i, lam: 1,
                        sample_lambda=no_sampling, declares_mi=True, enumerate_lambda=no_sampling)
    monkeypatch.setattr(quantum, "_word_limits", no_sampling)
    too_many = BLOCK_SIZE * 2**32 + 1
    for lhv in (model, declared):
        with pytest.raises(ValueError, match="n_per_series"):
            count_experiment(lhv, too_many, seed=0)
    with pytest.raises(ValueError, match="n_per_series"):
        count_quantum_experiment(TSIRELSON_ANGLES, too_many, seed=0)


def test_run_counts_validation():
    agree = dict.fromkeys(SETTING_PAIRS, 3)
    with pytest.raises(ValueError):
        RunCounts(0, 5, {p: a for p, a in agree.items() if p != (2, 2)})
    with pytest.raises(ValueError):
        RunCounts(0, 2, agree)
    # sizes and agreements as runs make them: integers, and n of at least 1
    for n in (0, -1, 2.5, True, np.bool_(True), 3.0):
        with pytest.raises(ValueError, match="n_per_series must be an integer of at least 1"):
            RunCounts(0, n, dict.fromkeys(SETTING_PAIRS, 0))
    for bad in (2.5, 3.0, Fraction(3), "3"):
        with pytest.raises(ValueError, match=r"pair \(1, 2\): .* agreements in 3 trials"):
            RunCounts(0, 3, agree | {(1, 2): bad})
    assert RunCounts(0, np.int64(3), agree | {(1, 2): np.uint8(2)}).agree[(1, 2)] == 2
    for n in (0, -5):
        with pytest.raises(ValueError, match="n must be positive"):
            violation_p_value(3.0, n)
    classes = {p: np.bincount([15, 15, 0], minlength=16) for p in SETTING_PAIRS}
    with pytest.raises(ValueError):
        RunCounts(0, 4, classes=classes)
    counts = RunCounts(0, 3, classes=classes)
    assert counts.agree == agree  # classes 0 and 15 agree on every pair
    freqs = class_frequencies(counts)
    assert freqs.per_pair[(1, 2)] == {Behavior(1, 1, 1, 1): 2 / 3, Behavior(-1, -1, -1, -1): 1 / 3}
    with pytest.raises(ValueError, match="^class counts need exactly the four setting pairs$"):
        RunCounts(0, 3, classes={p: c for p, c in classes.items() if p != (1, 2)})
    # a run gives its agreements or its class counts, which fix them: both or neither is refused
    for both_or_neither in ({"agree": agree, "classes": classes}, {}, {"agree": None, "classes": None}):
        with pytest.raises(ValueError, match="^run counts take exactly one of agree and classes$"):
            RunCounts(0, 3, **both_or_neither)
    with pytest.raises(ValueError, match="^run counts take exactly one of agree and classes$"):
        RunCounts(0, 3, agree, classes)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(0, 2**40), min_size=16, max_size=16), st.integers(0, 15)),
                min_size=4, max_size=4))
def test_agreements_are_derived_from_the_class_counts(drawn):
    """Each pair's agreements are the trials of the classes whose two clicks
    agree at its settings, counted here from each behavior's own clicks. Each
    drawn vector is topped up at a drawn class to a common n."""
    n = max(1, *(sum(counts) for counts, _ in drawn))
    classes = {}
    for pair, (counts, fill) in zip(SETTING_PAIRS, drawn):
        counts[fill] += n - sum(counts)
        classes[pair] = tuple(counts)
    agree = RunCounts(0, n, classes=classes).agree
    assert list(agree) == list(SETTING_PAIRS)
    for i, k in SETTING_PAIRS:
        agreeing = [beh.alice(i) == beh.bob(k) for beh in ALL_BEHAVIORS]
        assert agree[i, k] == sum(count for count, same in zip(classes[i, k], agreeing) if same)


@pytest.mark.parametrize("bad", [
    (6, -1) + (0,) * 14,
    (5,) + (0,) * 14,
    (5,) + (0,) * 16,
    (2.5, 2.5) + (0,) * 14,
], ids=["negative entry", "15 entries", "17 entries", "float entries"])
def test_run_counts_reject_a_class_vector_that_is_not_16_counts(bad):
    """Each class vector sums to n here, and each is still refused, with
    a message that names its pair."""
    good = (5,) + (0,) * 15
    classes = {pair: good for pair in SETTING_PAIRS} | {(2, 1): bad}
    with pytest.raises(ValueError, match=r"pair \(2, 1\): class counts must be 16 nonnegative integers summing to 5"):
        RunCounts(1, 5, classes=classes)


def _singlet_draws(monkeypatch):
    """The counts ``count_quantum_experiment`` draws at angles where pairs
    (1, 1) and (2, 1) have one outcome (cos = +-1) and the others two."""
    drawn = []

    def recording(*args):
        drawn.append(draw_counts(*args))
        return drawn[-1]

    monkeypatch.setattr(quantum, "draw_counts", recording)
    count_quantum_experiment(AnglePair(0.0, math.pi, 0.0, math.pi / 4), 49159, seed=3)
    [counts] = drawn
    assert counts[(1, 1)] == (49159, 0) and counts[(2, 1)] == (0, 49159)
    return counts


def _log_classes(factory):
    model = log_model(factory)
    return run_experiment(model, BLOCK_SIZE + 1, seed=3).classes


#: Every source of class vectors, each a function of pytest's monkeypatch.
COUNT_SOURCES = {
    **{name: lambda mp, name=name: count_experiment(MODEL_FACTORIES[name](), 49159, seed=3).classes
       for name in ("dice-coin", "cosine-sign", "conspiracy")},
    "tag path, batch twins": lambda mp: count_experiment(
        lookup_twins(MODEL_FACTORIES["dice-coin"]()), BLOCK_SIZE + 1, seed=3).classes,
    "tag path, scalar responses": lambda mp: count_experiment(
        scalar_only(MODEL_FACTORIES["dice-coin"]()), BLOCK_SIZE + 1, seed=3).classes,
    "trial log": lambda mp: _log_classes(MODEL_FACTORIES["cosine-sign"]),
    "draw_counts, 16 classes": lambda mp: draw_counts(
        (dict.fromkeys(SETTING_PAIRS, tuple(range(1, 17))), 136), 49159, seed=3),
    "draw_counts, singlet": _singlet_draws,
}


@pytest.mark.parametrize("source", COUNT_SOURCES.values(), ids=COUNT_SOURCES)
def test_class_vectors_are_tuples_of_python_ints(source, monkeypatch):
    """Every count leaves the draw as a Python int, in a tuple per pair."""
    counts = source(monkeypatch)
    assert list(counts) == list(SETTING_PAIRS)
    for pair, vector in counts.items():
        assert type(vector) is tuple and all(type(k) is int for k in vector), (pair, vector)


def test_run_check_takes_numpy_integers_and_refuses_bools_and_floats():
    for n, seed in [(np.int32(5), np.uint64(2**64 - 1)), (np.uint64(5), np.int32(7))]:
        checked = check_run(n, seed)
        assert checked == (5, int(seed)) and all(type(v) is int for v in checked)
    for bad in (True, np.bool_(True), 2.0, np.float64(2)):
        with pytest.raises(ValueError, match="n_per_series must be an integer"):
            check_run(bad, 0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            check_run(5, bad)


class FixedWords:
    """A stand-in stream whose ``bit_generator.random_raw(n)`` returns given
    raw 64-bit words."""

    def __init__(self, raw):
        self.raw = np.asarray(raw, dtype=np.uint64)
        self.bit_generator = self

    def random_raw(self, n):
        assert n == len(self.raw)
        return self.raw.copy()


def _words_at_boundaries(a, b):
    """Raw words whose top 53 bits are K - 1, K and K + 1 for each cell
    boundary x (K = ceil(x * 2**53)), the first and last top and a grid,
    each with low 11 bits 0, 2047 and random."""
    tops = [math.ceil(x * 2**53) + d for x in _cell_boundaries(a, b) for d in (-1, 0, 1)]
    tops += [0, 2**53 - 1] + [k << 45 for k in range(256)]
    tops = np.array([t for t in tops if 0 <= t < 2**53], dtype=np.uint64)
    noise = np.random.default_rng(len(tops)).integers(0, 1 << 11, size=len(tops), dtype=np.uint64)
    return np.concatenate([tops << np.uint64(11) | low for low in (np.uint64(0), np.uint64(2047), noise)])


def _deviates(raw):
    """What Generator.random() makes of raw words."""
    return (raw >> np.uint64(11)) * 2.0**-53


#: angle differences at which cells are empty (cos = +-1, a boundary at 0
#: or 1) or a boundary sits on a round value (cos = 0)
BOUNDARY_ANGLES = [(0.0, 0.0), (0.4, 0.4), (0.0, math.pi), (math.pi, 0.0), (0.0, math.pi / 2),
                   (0.0, 2 * math.pi), (1.0, 1.0 + math.pi / 3), (TSIRELSON_ANGLES.a1, TSIRELSON_ANGLES.b1)]


def cumsum_boundaries(a, b):
    """The first three cell boundaries as ``np.cumsum`` adds up the four
    cell probabilities."""
    c = math.cos(a - b)
    return tuple(np.cumsum(np.array([(1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4]))[:3].tolist())


def test_word_limits_equal_the_cumsum_route():
    # a grid of angle pairs with cos(a - b) = +-1 and 0 among them, the
    # boundary angles and random pairs
    grid = [(0.0, k * math.pi / 12) for k in range(-48, 49)] + BOUNDARY_ANGLES
    grid += np.random.default_rng(22).uniform(-10, 10, (2000, 2)).tolist()
    assert {round(math.cos(a - b), 12) for a, b in grid} >= {-1.0, 0.0, 1.0}
    for a, b in grid:
        boundaries = cumsum_boundaries(a, b)
        assert _cell_boundaries(a, b) == boundaries, (a, b)
        b0, _, b2 = boundaries
        assert _word_limits(a, b) == tuple(min(math.ceil(x * 2**53), 2**53) << 11 for x in (b0, b2)), (a, b)


@pytest.mark.parametrize("a,b", BOUNDARY_ANGLES)
def test_threshold_cells_equal_searchsorted(a, b):
    raw = _words_at_boundaries(a, b)
    cells = np.searchsorted(np.array(_cell_boundaries(a, b)), _deviates(raw), side="right")
    # the clicks agree in cells 0, (+1,+1), and 3, (-1,-1)
    assert count_agreements(a, b, FixedWords(raw), len(raw)) == np.count_nonzero((cells == 0) | (cells == 3))


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, math.pi)])
def test_empty_cells_are_never_drawn(a, b):
    raw = _words_at_boundaries(a, b)
    # cos = 1: the clicks always disagree; cos = -1: they always agree
    assert count_agreements(a, b, FixedWords(raw), len(raw)) == (0 if a == b else len(raw))


@pytest.mark.parametrize("key", [(0, 0, 0), (29, 3, 7), (2**64 - 1, 1, 1000)])
def test_stream_deviates_are_raw_words_shifted(key):
    """The singlet compares raw words against limits because random() on a
    block's stream is (raw >> 11) * 2**-53."""
    assert np.array_equal(trial_stream(*key).random(5000), _deviates(trial_stream(*key).bit_generator.random_raw(5000)))


_PEAK_RSS = """
import contextlib, io, resource, sys
from bellcheck import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kib(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), BELLCHECK_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    code, kib = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(kib)


@pytest.mark.parametrize("model,small,large", [("quantum", 1 << 14, 1 << 23), ("cosine-sign", 1 << 14, 1 << 21)])
def test_run_memory_is_flat_in_n(model, small, large):
    """A trial log of 2^23 trials per series holds about 200 MB; the count
    path holds one block per worker."""
    grow = [_peak_rss_kib("run", "--model", model, "--n", str(n), "--seed", "1") for n in (small, large)]
    assert grow[1] - grow[0] < 16 * 1024, f"peak RSS grew by {(grow[1] - grow[0]) / 1024:.1f} MB"


_LOG_RSS = """
import resource, sys
from batch_models import lookup_twins
from bellcheck.engine import run_experiment
from bellcheck.zoo import get_model

model = lookup_twins(get_model(sys.argv[1]))

def log_of(n):
    return run_experiment(model, n, seed=1)

log_of(1 << 15)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
log = log_of(int(sys.argv[2]))
grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
arrays = [a for s in log.series.values() for a in (s.alice, s.bob, s.lambdas)]
print(grew * 1024, sum(a.nbytes for a in arrays))
"""


@pytest.mark.parametrize("model", ["cosine-sign"])
def test_log_memory_is_near_its_bytes(model):
    """Each series concatenates its own blocks, so with one worker only
    one series is held twice (as blocks and joined), not the whole log.
    The log takes its clicks from the model's lookup twins, as the zoo
    models' scalar responses would take a minute at this size."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]), BELLCHECK_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _LOG_RSS, model, str(1 << 21)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grew, nbytes = map(int, proc.stdout.split())
    assert grew < 1.5 * nbytes, f"peak RSS grew by {grew / nbytes:.2f}x the log's {nbytes / 2**20:.1f} MB"
