import dataclasses
import itertools
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.core import (
    ALL_BEHAVIORS,
    DOMAIN_SLACK,
    PAIR_CODES,
    SETTING_PAIRS,
    Behavior,
    CorrelationTable,
    LhvModel,
    behavior_codes,
)
from bellcheck import engine, streams
from bellcheck.engine import (
    ClassFrequencies,
    RunCounts,
    Series,
    TrialLog,
    chsh_report,
    chsh_statistic,
    class_frequencies,
    count_experiment,
    empirical_table,
    exact_class_weights,
    exact_correlation_table,
    exact_mi_holds,
    hoeffding_epsilon,
    mi_diagnostic,
    run_experiment,
    theoretical_chsh,
    theoretical_correlations,
    validate_weights,
    violation_p_value,
)
from bellcheck.errors import ModelError
from bellcheck.quantum import TSIRELSON_ANGLES, count_quantum_experiment, quantum_chsh
from bellcheck.streams import BLOCK_SIZE, iter_blocks, trial_stream
from bellcheck.zoo import conspiracy_model, cosine_sign_model, dice_coin_model
from batch_models import (
    declared_model,
    direction_model,
    lookup_twins,
    tilted_model,
    uniform_code_model,
    without_distribution,
)
from trial_reference import assert_same_counts, lhv_reference_clicks

DICE_WEIGHTS = {
    Behavior(1, -1, 1, 1): Fraction(1, 2),
    Behavior(1, 1, 1, -1): Fraction(1, 2),
}


def constant_model():
    return LhvModel(
        name="constant",
        respond_alice=lambda i, lam: 1,
        respond_bob=lambda i, lam: 1,
        sample_lambda=lambda rng, n, pair: np.zeros(n, dtype=np.int64),
        declares_mi=True,
        enumerate_lambda=lambda pair: [(0, Fraction(1))],
    )


#: The two count-loop entries, as run(n_per_series, seed): a declared
#: model's class distribution and the singlet's two outcomes.
COUNT_RUNS = [
    lambda n, seed: count_experiment(dice_coin_model(), n, seed),
    lambda n, seed: count_quantum_experiment(TSIRELSON_ANGLES, n, seed),
]


def no_stream(*args):
    raise AssertionError("stream keyed")


def exact_sweep_log(model, domain):
    """A log whose every series visits each tag in ``domain`` once."""
    lams = np.array(list(domain))
    classes = dict.fromkeys(SETTING_PAIRS, tuple(np.bincount(behavior_codes(model, lams), minlength=16).tolist()))
    series, agree = {}, {}
    for pair in SETTING_PAIRS:
        alice = np.array([model.respond_alice(pair[0], l) for l in lams], dtype=np.int8)
        bob = np.array([model.respond_bob(pair[1], l) for l in lams], dtype=np.int8)
        series[pair] = Series(pair, alice, bob, lams.copy())
        agree[pair] = int(np.count_nonzero(alice == bob))
    log = TrialLog(0, len(lams), classes=classes, series=series)
    assert log.agree == agree  # the clicks agree where the class counts say
    return log


rational_weights = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=16, max_size=16
).filter(lambda ns: sum(ns) > 0).map(
    lambda ns: {
        beh: Fraction(n, sum(ns)) for beh, n in zip(ALL_BEHAVIORS, ns) if n
    }
)


class TestRunExperiment:
    def test_constant_model_all_plus(self):
        log = run_experiment(constant_model(), 5, seed=0)
        for pair in SETTING_PAIRS:
            s = log.series[pair]
            assert np.all(s.alice == 1) and np.all(s.bob == 1)

    def test_dice_tags_uniform(self):
        n = 600_000
        log = run_experiment(lookup_twins(dice_coin_model()), n, seed=42)
        band = math.sqrt(math.log(2 / 0.01) / (2 * n))  # indicator range 1
        for pair in SETTING_PAIRS:
            counts = np.bincount(log.series[pair].lambdas, minlength=7)[1:]
            assert np.all(np.abs(counts / n - 1 / 6) <= band)

    def test_seeded_determinism(self):
        a = count_experiment(dice_coin_model(), 40_000, seed=9)
        b = count_experiment(dice_coin_model(), 40_000, seed=9)
        assert_same_counts(a, b)

    def test_sampler_failure_becomes_model_error(self):
        def broken_sampler(rng, n, pair):
            raise KeyError("tag domain exhausted")

        model = LhvModel(
            name="broken",
            respond_alice=lambda i, lam: 1,
            respond_bob=lambda i, lam: 1,
            sample_lambda=broken_sampler,
            declares_mi=True,
        )
        with pytest.raises(ModelError):
            run_experiment(model, 10, seed=0)

    def test_bad_response_value_becomes_model_error(self):
        model = LhvModel(
            name="loud",
            respond_alice=lambda i, lam: 3,
            respond_bob=lambda i, lam: 1,
            sample_lambda=lambda rng, n, pair: np.zeros(n, dtype=np.int64),
            declares_mi=True,
        )
        with pytest.raises(ModelError):
            run_experiment(model, 10, seed=0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            run_experiment(dice_coin_model(), 0, seed=1)

    def test_rejects_bool_seed(self):
        with pytest.raises(ValueError, match="seed"):
            run_experiment(dice_coin_model(), 10, seed=True)

    def test_fractional_n_is_not_blamed_on_the_model(self):
        with pytest.raises(ValueError, match="n_per_series"):
            run_experiment(dice_coin_model(), 2.5, seed=0)

    @pytest.mark.parametrize("run", COUNT_RUNS, ids=["declared", "singlet"])
    @pytest.mark.parametrize("n", [True, 2.5, "10"])
    def test_non_integer_n_rejected_before_sampling(self, run, n, monkeypatch):
        monkeypatch.setattr(streams, "_pool_stream", no_stream)
        with pytest.raises(ValueError, match="n_per_series"):
            run(n, 0)

    @pytest.mark.parametrize("run", COUNT_RUNS, ids=["declared", "singlet"])
    def test_n_past_one_word_block_indices_rejected_before_sampling(self, run, monkeypatch):
        # block indices are mixed into the stream key as one uint32 word,
        # and every run keeps the tag path's limit; the count path keys its
        # streams through streams._pool_stream
        monkeypatch.setattr(streams, "_pool_stream", no_stream)
        with pytest.raises(ValueError, match="n_per_series"):
            run(BLOCK_SIZE * 2**32 + 1, 0)
        with pytest.raises(AssertionError, match="stream keyed"):  # the largest n draws
            run(BLOCK_SIZE * 2**32, 0)


@pytest.mark.parametrize("size", [np.uint64, np.uint32, np.uint8, np.int64])
def test_numpy_integer_sizes_run_as_their_int(size):
    """A numpy integer n_per_series gives the counts of the same int, and
    every run records it as a Python int."""
    model = dice_coin_model()
    runs = {
        "declared": lambda n: count_experiment(model, n, 5),
        "tag path": lambda n: count_experiment(without_distribution(model), n, 5),
        "singlet": lambda n: count_quantum_experiment(TSIRELSON_ANGLES, n, 5),
        "trial log": lambda n: run_experiment(model, n, 5),
    }
    for name, run in runs.items():
        got = run(size(200))
        assert type(got.n_per_series) is int, name
        assert_same_counts(got, run(200))


#: Values of BELLCHECK_THREADS that once set a worker count or stopped a
#: run: blank, integers, and values that were not integers of at least 1.
FORMER_THREADS_VALUES = ["  ", " 3 ", "1000000", "0", "-2", "abc", "2.5", "1e3", "3 workers"]


@pytest.mark.parametrize("value", FORMER_THREADS_VALUES)
def test_threads_variable_leaves_every_run_as_unset(value, monkeypatch):
    """No value of BELLCHECK_THREADS fails a run or changes its counts, on
    the tag path and in the trial log."""
    model = without_distribution(dice_coin_model())
    n = 2 * BLOCK_SIZE + 5
    monkeypatch.delenv("BELLCHECK_THREADS", raising=False)
    tags, log = count_experiment(model, n, seed=6), run_experiment(model, n, 6)
    monkeypatch.setenv("BELLCHECK_THREADS", value)
    assert_same_counts(count_experiment(model, n, seed=6), tags)
    assert_same_counts(run_experiment(model, n, 6), log)


def test_every_series_samples_on_the_calling_thread(monkeypatch):
    """The tag path and the trial log call sample_lambda on the calling
    thread alone."""
    threads = set()
    model = without_distribution(dice_coin_model())

    def sample_lambda(rng, n, pair):
        threads.add(threading.get_ident())
        return model.sample_lambda(rng, n, pair)

    recording = dataclasses.replace(model, sample_lambda=sample_lambda)
    count_experiment(recording, 3 * BLOCK_SIZE, seed=8)
    run_experiment(recording, 3 * BLOCK_SIZE, seed=8)
    assert threads == {threading.get_ident()}


def code_bits_model():
    """Tags uniform over the 16 behavior codes, each response read off its
    bit of the code by the scalar responses alone."""
    return LhvModel(
        name="code-bits",
        respond_alice=lambda index, lam: 1 if lam >> (4 - index) & 1 else -1,
        respond_bob=lambda index, lam: 1 if lam >> (2 - index) & 1 else -1,
        sample_lambda=lambda rng, n, pair: rng.integers(0, 16, size=n),
        declares_mi=True,
    )


def traced_peak(call):
    """call()'s result and the peak of the memory tracemalloc traces during
    it, after a warm-up log of two blocks and its class analysis."""
    model = direction_model()
    class_frequencies(run_experiment(model, 2 * BLOCK_SIZE, seed=1), model)
    tracemalloc.start()
    try:
        held, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


#: (case id, model factory): all 16 classes on batch twins and on scalar
#: responses alone, and float tags on batch twins
BLOCKWISE_MODELS = [
    ("uniform-code twins", lambda: without_distribution(uniform_code_model())),
    ("code bits scalar", code_bits_model),
    ("direction twins", direction_model),
]


class TestBlockwiseTrialLog:
    @pytest.mark.parametrize("factory", [c[1] for c in BLOCKWISE_MODELS], ids=[c[0] for c in BLOCKWISE_MODELS])
    @pytest.mark.parametrize("n", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 5])
    def test_log_takes_the_tag_path_counts_and_the_scalar_clicks(self, factory, n):
        """A log's counts, taken as its blocks are drawn, are the tag path's
        counts; its clicks are the per-trial reference's scalar responses,
        and its agreements the clicks that agree."""
        model = factory()
        log = run_experiment(model, n, seed=17)
        assert_same_counts(log, count_experiment(model, n, seed=17))
        assert all(type(c) is int for row in log.classes.values() for c in row)
        assert list(log.classes) == list(SETTING_PAIRS)
        reference = lhv_reference_clicks(model, n, seed=17)
        for pair, s in log.series.items():
            alice, bob = reference[pair]
            assert np.array_equal(s.alice, alice) and np.array_equal(s.bob, bob), pair
            assert log.agree[pair] == np.count_nonzero(s.alice == s.bob), pair

    @pytest.mark.parametrize("dtypes,logged", [
        ((np.int64, np.float64, np.int64), np.float64),
        ((np.float64, np.int64, np.int64), np.float64),
        ((np.uint8, np.int8, np.uint8), np.int16),
        ((np.int8, np.int8, np.int64), np.int64),
    ], ids=["int64 to float64", "float64 to int64", "uint8 to int8", "int8 to int64 in the last block"])
    def test_tags_take_the_dtype_concatenating_the_blocks_gives(self, dtypes, logged):
        """A series whose blocks' tag dtypes differ logs the tag values and
        the dtype that ``np.concatenate`` of its blocks gives."""
        n = 2 * BLOCK_SIZE + 5

        def sampler():
            cycle = itertools.cycle(dtypes)
            return lambda rng, count, pair: rng.integers(0, 16, size=count).astype(next(cycle))

        twin = lambda shift: lambda index, lams: np.where(lams.astype(np.int64) >> (shift - index) & 1, 1, -1)
        model = LhvModel("dtype-switch", lambda i, lam: 1, lambda i, lam: 1, sampler(), True,
                         respond_alice_batch=twin(4), respond_bob_batch=twin(2))
        log = run_experiment(model, n, seed=5)
        reference = sampler()
        for pair, s in log.series.items():
            blocks = [reference(trial_stream(5, PAIR_CODES[pair], j), stop - start, pair)
                      for j, start, stop in iter_blocks(n)]
            expected = np.concatenate(blocks)
            assert [b.dtype for b in blocks] == list(dtypes)
            assert s.lambdas.dtype == expected.dtype == logged, pair
            assert np.array_equal(s.lambdas, expected), pair
            assert np.array_equal(s.alice, twin(4)(pair[0], expected)) and s.alice.dtype == np.int8
            assert np.array_equal(s.bob, twin(2)(pair[1], expected)) and s.bob.dtype == np.int8
        assert_same_counts(log, count_experiment(model, n, seed=5))

    def test_building_a_log_takes_its_bytes_and_a_block(self):
        """At 2^18 float-tag trials per series the log holds 10 MiB, and
        building it takes at most 1.1 times that."""
        log, peak = traced_peak(lambda: run_experiment(direction_model(), 1 << 18, seed=11))
        log_bytes = sum(a.nbytes for s in log.series.values() for a in (s.alice, s.bob, s.lambdas))
        assert log_bytes == 4 * 10 * (1 << 18)
        assert peak <= 1.1 * log_bytes, peak / log_bytes

    @pytest.mark.parametrize("n", [1 << 18, 1 << 20])
    def test_class_analysis_of_a_log_takes_a_block(self, n):
        """The class analysis of a log takes at most 0.5 MiB on top of it,
        whatever its size: it reads the class counts the log took as its
        blocks were drawn, where classifying one series' tags or comparing
        its clicks would take n bytes."""
        model = direction_model()
        log = run_experiment(model, n, seed=11)
        _, peak = traced_peak(lambda: class_frequencies(log, model))
        assert peak <= 1 << 19, peak


def agreeing(n, **agree):
    """Run counts of n trials per pair: agree["e12"] agreements at pair
    (1, 2) and so on, n at every pair not named."""
    return RunCounts(0, n, {p: agree.get(f"e{p[0]}{p[1]}", n) for p in SETTING_PAIRS})


class TestEstimateCorrelation:
    """A series' correlation estimate (agreements - disagreements) / n, as
    ``empirical_table`` reads it off a run's counts."""

    def test_perfect_correlation(self):
        assert empirical_table(agreeing(8)).e11 == 1.0

    def test_dice_exact_sweep_pair_11(self):
        assert empirical_table(exact_sweep_log(dice_coin_model(), range(1, 7))).e11 == 1.0

    def test_cancellation(self):
        assert empirical_table(agreeing(8, e11=4)).e11 == 0.0

    def test_series_input(self):
        assert empirical_table(agreeing(3, e12=2)).e12 == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="n_per_series"):
            count_experiment(dice_coin_model(), 0, seed=0)


class TestChshStatistic:
    def test_dice_table(self):
        assert chsh_statistic(CorrelationTable(1, 0, 0, -1)) == 0

    def test_algebraic_maximum(self):
        assert chsh_statistic(CorrelationTable(1, -1, 1, 1)) == 4

    def test_zero_table(self):
        assert chsh_statistic(CorrelationTable(0, 0, 0, 0)) == 0


class TestClassFrequencies:
    def test_dice_exact_sweep(self):
        model = dice_coin_model()
        freqs = class_frequencies(exact_sweep_log(model, range(1, 7)), model)
        for pair in SETTING_PAIRS:
            assert freqs.per_pair[pair] == {
                Behavior(1, -1, 1, 1): 0.5,
                Behavior(1, 1, 1, -1): 0.5,
            }

    def test_constant_single_class(self):
        model = constant_model()
        log = run_experiment(model, 100, seed=1)
        freqs = class_frequencies(log, model)
        for pair in SETTING_PAIRS:
            assert freqs.per_pair[pair] == {Behavior(1, 1, 1, 1): 1.0}

    def test_conspiracy_differs_across_pairs(self):
        model = conspiracy_model()
        log = run_experiment(model, 50, seed=2)
        freqs = class_frequencies(log, model)
        supports = {pair: frozenset(freqs.per_pair[pair]) for pair in SETTING_PAIRS}
        assert len(set(supports.values())) == 4

    def test_quantum_log_rejected(self):
        # a model offered alongside singlet counts does not give them classes
        from bellcheck.quantum import TSIRELSON_ANGLES, count_quantum_experiment

        counts = count_quantum_experiment(TSIRELSON_ANGLES, 10, seed=0)
        with pytest.raises(ValueError, match="class"):
            class_frequencies(counts, dice_coin_model())

    def test_counts_give_frequencies_without_revalidation(self, monkeypatch):
        """RunCounts checked the counts, so class_frequencies makes no
        validate_weights call; its frequencies still pass one."""
        calls = []
        monkeypatch.setattr(engine, "validate_weights", lambda weights: calls.append(weights))
        model = without_distribution(dice_coin_model())
        for counts in (count_experiment(model, 1000, seed=3), run_experiment(model, 1000, seed=3)):
            freqs = class_frequencies(counts, model)
            assert calls == []
            for pair in SETTING_PAIRS:
                validate_weights(freqs.per_pair[pair])

    def test_caller_built_frequencies_are_validated(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ClassFrequencies({(1, 1): {Behavior(1, 1, 1, 1): 1.5, Behavior(-1, -1, -1, -1): -0.5}})
        with pytest.raises(ValueError, match="sum to 0.5, not 1"):
            ClassFrequencies({pair: {Behavior(1, 1, 1, 1): 0.5} for pair in SETTING_PAIRS})

    def test_never_more_than_16_classes(self):
        for model in map(lookup_twins, (dice_coin_model(), cosine_sign_model(), conspiracy_model())):
            log = run_experiment(model, 5000, seed=11)
            freqs = class_frequencies(log, model)
            assert all(len(inner) <= 16 for inner in freqs.per_pair.values())


class TestTheoreticalCorrelations:
    def test_dice_weights(self):
        table = theoretical_correlations(DICE_WEIGHTS)
        assert table.as_tuple() == (1, 0, 0, -1)
        assert all(isinstance(v, Fraction) for v in table.as_tuple())

    def test_single_class(self):
        table = theoretical_correlations({Behavior(1, 1, 1, 1): Fraction(1)})
        assert table.as_tuple() == (1, 1, 1, 1)

    def test_uniform_over_16(self):
        w = {beh: Fraction(1, 16) for beh in ALL_BEHAVIORS}
        table = theoretical_correlations(w)
        # oracle: brute-force sum over the 16 outcome quadruples
        for (i, k), got in zip(SETTING_PAIRS, table.as_tuple()):
            expected = Fraction(
                sum(beh.alice(i) * beh.bob(k) for beh in ALL_BEHAVIORS), 16
            )
            assert got == expected == 0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            theoretical_correlations({Behavior(1, 1, 1, 1): Fraction(1, 2)})
        with pytest.raises(ValueError):
            validate_weights({Behavior(1, 1, 1, 1): Fraction(3, 2),
                              Behavior(-1, -1, -1, -1): Fraction(-1, 2)})


#: Large primes, so that products of a few of them are large coprime denominators.
_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 10**9 + 7, 998_244_353, 10**18 + 9)


def _as_fraction(w) -> Fraction:
    # through int: a Fraction of an np.int64 keeps numpy's fixed-width numerator
    return Fraction(int(w.numerator), int(w.denominator))


@st.composite
def exact_weight_dicts(draw):
    """Rational class weights (Fractions over products of large primes,
    ints and np.int64 zeros, or one int or np.int64 weight of 1) that sum
    to exactly 1, miss it by 1/d, or hold one negative entry."""
    behaviors = draw(st.permutations(ALL_BEHAVIORS))[:draw(st.integers(1, 16))]
    if len(behaviors) == 1 and draw(st.booleans()):
        weights = [draw(st.sampled_from([1, np.int64(1), Fraction(1)]))]
    else:
        weights = []
        for _ in behaviors[1:]:
            if draw(st.integers(0, 4)) == 0:
                weights.append(draw(st.sampled_from([0, np.int64(0), Fraction(0)])))
            else:
                den = math.prod(draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=3)))
                weights.append(Fraction(draw(st.integers(0, den // 16)), den))
        weights.append(1 - sum(map(_as_fraction, weights)))  # at least 1/16
    kind = draw(st.sampled_from(["one", "over", "under", "negative"]))
    if kind in ("over", "under"):
        d = math.prod(draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=3)))
        weights[-1] = _as_fraction(weights[-1]) + Fraction(1 if kind == "over" else -1, d)
    elif kind == "negative":
        j = draw(st.integers(0, len(weights) - 1))
        weights[j] = -weights[j] if weights[j] else draw(st.sampled_from([-1, np.int64(-1), Fraction(-1, 3)]))
    return dict(zip(behaviors, weights))


def _fraction_verdict(weights) -> str | None:
    """What validate_weights must say, from the weights summed as Fractions."""
    fractions = list(map(_as_fraction, weights.values()))
    if any(w < 0 for w in fractions):
        return "class weights must be nonnegative"
    total = sum(fractions, Fraction(0))
    return None if total == 1 else f"class weights sum to {total}, not 1"


class TestValidateWeights:
    @given(exact_weight_dicts())
    @settings(max_examples=400, deadline=None)
    def test_exact_weights_decide_as_their_fraction_sum(self, weights):
        try:
            validate_weights(weights)
        except ValueError as exc:
            verdict = str(exc)
        else:
            verdict = None
        assert verdict == _fraction_verdict(weights)

    def test_float_weights_keep_the_domain_slack(self):
        a, b = Behavior(1, 1, 1, 1), Behavior(-1, -1, -1, -1)
        validate_weights({a: 0.25, b: 0.75 + DOMAIN_SLACK / 2})
        validate_weights({a: Fraction(1, 3), b: 2 / 3})  # one float makes the sum a float
        with pytest.raises(ValueError, match=r"^class weights sum to 1\.000000000002\d*, not 1$"):
            validate_weights({a: 0.25, b: 0.75 + 2 * DOMAIN_SLACK})
        with pytest.raises(ValueError, match="^class weights sum to nan, not 1$"):
            validate_weights({a: 0.25, b: float("nan")})


class TestTheoreticalChsh:
    def test_dice_weights(self):
        s, per_class = theoretical_chsh(DICE_WEIGHTS)
        assert s == 0
        assert per_class == {Behavior(1, -1, 1, 1): -2, Behavior(1, 1, 1, -1): 2}

    def test_all_equal_class(self):
        s, per_class = theoretical_chsh({Behavior(1, 1, 1, 1): Fraction(1)})
        assert s == 2
        assert per_class[Behavior(1, 1, 1, 1)] == 2

    def test_c_range_all_behaviors(self):
        # oracle: evaluate A1*B1 - A1*B2 + A2*B1 + A2*B2 directly
        for beh in ALL_BEHAVIORS:
            c = beh.a1 * beh.b1 - beh.a1 * beh.b2 + beh.a2 * beh.b1 + beh.a2 * beh.b2
            assert c in (-2, 2)
            _, per_class = theoretical_chsh({beh: Fraction(1)})
            assert per_class[beh] == c

    @given(rational_weights)
    @settings(max_examples=300, deadline=None)
    def test_bound_holds_exactly(self, weights):
        s, _ = theoretical_chsh(weights)
        assert abs(s) <= 2

    @given(rational_weights)
    @settings(max_examples=300, deadline=None)
    def test_consistency_with_table_route(self, weights):
        s, _ = theoretical_chsh(weights)
        assert s == chsh_statistic(theoretical_correlations(weights))


def exact_frequencies(model) -> ClassFrequencies:
    """A model's exact class weights at each setting pair, as frequencies."""
    return ClassFrequencies(per_pair={pair: exact_class_weights(model, pair) for pair in SETTING_PAIRS})


class TestMiDiagnostic:
    def test_dice_exact_holds(self):
        mi = mi_diagnostic(exact_frequencies(dice_coin_model()), tolerance=1e-12)
        assert mi.holds
        assert mi.max_deviation == 0

    def test_conspiracy_fails(self):
        mi = mi_diagnostic(exact_frequencies(conspiracy_model()), tolerance=1e-12)
        assert not mi.holds
        assert mi.max_deviation == 1.0
        assert mi.worst_pair in SETTING_PAIRS[1:]

    def test_requires_all_four_pairs(self):
        partial = ClassFrequencies(per_pair={(1, 1): {Behavior(1, 1, 1, 1): 1.0}})
        with pytest.raises(ValueError):
            mi_diagnostic(partial, tolerance=0.1)


class TestReports:
    def test_report_fields(self):
        log = run_experiment(dice_coin_model(), 10_000, seed=4)
        rep = chsh_report(log)
        assert rep.s_star == chsh_statistic(rep.table)
        assert rep.bound_satisfied
        assert rep.n_per_series == 10_000
        assert rep.hoeffding_epsilon == hoeffding_epsilon(10_000)

    def test_hoeffding_formula(self):
        n = 100_000
        assert hoeffding_epsilon(n) == pytest.approx(2 * math.sqrt(math.log(200) / (2 * n)))
        with pytest.raises(ValueError):
            hoeffding_epsilon(0)
        with pytest.raises(ValueError):
            hoeffding_epsilon(10, delta=1.5)

    @pytest.mark.parametrize("n", [1, 3, 1 << 20, 1 << 40])
    def test_bound_is_decided_in_integers(self, n):
        """With T = a11 + (n - a12) + a21 + a22, S* = 2 T / n - 4: T = 3n
        and T = n lie on the bound, T = 3n + 1 and T = n - 1 past it by
        2 / n, which at n = 2^40 a float verdict with a slack of 1e-9
        would call satisfied."""
        assert chsh_report(agreeing(n, e12=0, e22=0)).bound_satisfied  # T = 3n
        assert not chsh_report(agreeing(n, e12=0, e22=1)).bound_satisfied  # T = 3n + 1
        assert chsh_report(agreeing(n, e11=0, e21=0)).bound_satisfied  # T = n
        assert not chsh_report(agreeing(n, e11=0, e21=0, e22=n - 1)).bound_satisfied  # T = n - 1

    def test_empirical_table_matches_series_means(self):
        log = run_experiment(dice_coin_model(), 1000, seed=8)
        table = empirical_table(log)
        for pair, value in zip(SETTING_PAIRS, table.as_tuple()):
            s = log.series[pair]
            assert value == pytest.approx(np.mean(s.alice * s.bob.astype(np.int64)))


class TestViolationTest:
    def test_p_value_formula(self):
        assert violation_p_value(2.0, 10) == 1.0
        assert violation_p_value(-1.5, 10) == 1.0
        assert violation_p_value(-2.5, 100) == math.exp(-100 * 0.25 / 8)
        assert violation_p_value(4.0, 1000) == math.exp(-1000 * 4 / 8)
        rep = chsh_report(agreeing(100, e12=0))  # S* = 4
        assert (rep.violation_p_value, rep.violation_significant) == (math.exp(-100 * 4 / 8), True)
        rep = chsh_report(agreeing(100, e12=50))  # S* = 3
        assert rep.violation_significant is (math.exp(-100 / 8) <= engine.VIOLATION_DELTA)

    def test_singlet_at_tsirelson_is_significant_from_54_trials(self):
        # 8 ln(1/delta) / (2 sqrt 2 - 2)^2 = 53.7
        s = quantum_chsh(TSIRELSON_ANGLES)
        assert [n for n in range(1, 2001) if violation_p_value(s, n) <= engine.VIOLATION_DELTA] == list(range(54, 2001))

    def test_cosine_sign_rarely_reports_a_significant_violation(self):
        # exact S = -2, so the point estimate passes 2 for about half the
        # seeds; the test must call at most a delta share of them significant
        model = cosine_sign_model()
        reports = [chsh_report(count_experiment(model, 1000, seed)) for seed in range(2000)]
        assert sum(not r.bound_satisfied for r in reports) > 500
        assert sum(r.violation_significant for r in reports) <= engine.VIOLATION_DELTA * len(reports)

    def test_a_sampler_that_repeats_one_tag_no_longer_fakes_a_violation(self):
        """A cosine-sign variant declares the same distribution, but its
        sampler repeats one tag for a whole batch. Each trial still meets
        measurement independence, yet the trials are not independent. `run`
        draws its counts from the declared distribution, so over 200 seeds
        at n = 1000 at most 1% (2) of its reports may be significant. From
        the exact per-seed rate q (four binomial agreement counts), this
        test fails with probability P(Binomial(200, q) > 2), asserted below
        1e-4. The trial log still draws through the sampler and is
        significant for far more seeds; it takes its clicks from the
        model's lookup twins, which answer as its scalar responses do."""
        from scipy.stats import binom

        n, seeds = 1000, range(200)
        model = dataclasses.replace(cosine_sign_model(), sample_lambda=lambda rng, k, pair: np.full(k, rng.integers(720)))
        significant = sum(chsh_report(count_experiment(model, n, seed)).violation_significant for seed in seeds)
        assert significant <= engine.VIOLATION_DELTA * len(seeds)
        # Y = a11 + (n - a12) + a21 + a22 and S* = 2 Y / n - 4, as in the exact-tail test below
        table, k, pmf = exact_correlation_table(model), np.arange(n + 1), np.ones(1)
        for pair, sign in zip(SETTING_PAIRS, (1, -1, 1, 1)):
            counts = binom.pmf(k, n, float((1 + table.value(pair)) / 2))
            pmf = np.convolve(pmf, counts if sign > 0 else counts[::-1])
        q = sum(p for y, p in enumerate(pmf) if violation_p_value(2 * y / n - 4, n) <= engine.VIOLATION_DELTA)
        assert binom.sf(engine.VIOLATION_DELTA * len(seeds), len(seeds), q) < 1e-4
        twins = lookup_twins(model)
        assert sum(chsh_report(run_experiment(twins, n, seed)).violation_significant for seed in seeds) > 20

    @pytest.mark.parametrize("factory", [dice_coin_model, cosine_sign_model])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 54, 100, 333, 1000, 2000])
    def test_exact_tail_is_below_the_hoeffding_bound(self, factory, n):
        """P(|S*| - 2 >= t) over the four binomial agreement counts, each
        at the model's exact agreement probability, against exp(-n t^2 / 8)."""
        from scipy.stats import binom

        table = exact_correlation_table(factory())
        k = np.arange(n + 1)
        # Y = a11 + (n - a12) + a21 + a22 and S* = 2 Y / n - 4
        pmf = np.ones(1)
        for pair, sign in zip(SETTING_PAIRS, (1, -1, 1, 1)):
            counts = binom.pmf(k, n, float((1 + table.value(pair)) / 2))
            pmf = np.convolve(pmf, counts if sign > 0 else counts[::-1])
        excess = np.abs(2 * np.arange(4 * n + 1) / n - 4) - 2
        for t in np.unique(excess[excess > 0]):
            assert pmf[excess >= t].sum() <= math.exp(-n * t * t / 8) * (1 + 1e-9), t


class TestExactMiHolds:
    def test_a_tilt_of_1e_15_breaks_independence(self):
        model = tilted_model()
        assert exact_mi_holds(model) is False
        # the float diagnostic at DOMAIN_SLACK, once bound's verdict, passes it
        mi = mi_diagnostic(exact_frequencies(model), DOMAIN_SLACK)
        assert mi.holds and 0 < mi.max_deviation <= 1e-15

    def test_pairs_declared_over_different_denominators_compare_as_weights(self):
        # pair (2,2) declares one odd and one even tag at 1/2, the others six
        # tags at 1/6: the same two class weights, over d = 2 and d = 6
        def declared(pair):
            return [(1, Fraction(1, 2)), (2, Fraction(1, 2))] if pair == (2, 2) else [(k, Fraction(1, 6)) for k in range(1, 7)]

        assert exact_mi_holds(dataclasses.replace(dice_coin_model(), enumerate_lambda=declared)) is True

    def test_needs_a_declared_distribution(self):
        with pytest.raises(ValueError, match="exact tag distribution"):
            exact_mi_holds(without_distribution(dice_coin_model()))


def per_pair_route(model) -> tuple:
    """The route exact_correlation_table replaced, kept as its reference:
    each pair's exact class weights through theoretical_correlations."""
    return tuple(theoretical_correlations(exact_class_weights(model, pair)).value(pair) for pair in SETTING_PAIRS)


#: Angle sets (a1, a2, b1, b2) of cosine-sign for the differential test.
COSINE_SIGN_ANGLES = [
    (0.8, 1.0, 0.8, 2.0),
    (0.0, 1.0, math.pi / 2, 2.0),
    (0.3, 1.9, -0.8, 2.6),
    (0.0, math.pi / 2, math.pi, -math.pi / 2),
]

pair_dependent_weights = st.tuples(*[rational_weights] * 4).map(lambda ws: dict(zip(SETTING_PAIRS, ws)))


class TestExactTables:
    @pytest.mark.parametrize(
        "factory",
        [dice_coin_model, cosine_sign_model, conspiracy_model]
        + [lambda a=a: cosine_sign_model(*a) for a in COSINE_SIGN_ANGLES],
        ids=["dice-coin", "cosine-sign", "conspiracy"] + [f"cosine-sign angles {i}" for i in range(len(COSINE_SIGN_ANGLES))],
    )
    def test_matches_the_per_pair_route(self, factory):
        model = factory()
        table = exact_correlation_table(model)
        assert table.as_tuple() == per_pair_route(model)
        assert all(type(e) is Fraction for e in table.as_tuple())

    @given(pair_dependent_weights)
    @settings(max_examples=200, deadline=None)
    def test_declared_pair_dependent_weights_match_the_per_pair_route(self, per_pair):
        model = declared_model(per_pair)
        assert exact_correlation_table(model).as_tuple() == per_pair_route(model)

    def test_needs_a_declared_distribution(self):
        with pytest.raises(ValueError, match="exact tag distribution"):
            exact_correlation_table(without_distribution(dice_coin_model()))

    def test_conspiracy_series_table(self):
        table = exact_correlation_table(conspiracy_model())
        assert table.as_tuple() == (1, -1, 1, 1)
        assert chsh_statistic(table) == 4

    def test_mi_model_series_table_matches_single_distribution(self):
        model = dice_coin_model()
        assert exact_correlation_table(model).as_tuple() == theoretical_correlations(
            exact_class_weights(model)
        ).as_tuple()


class TestLogValidation:
    def test_is_its_run_counts(self):
        log = run_experiment(constant_model(), 5, seed=0)
        assert isinstance(log, RunCounts)
        assert log.agree == dict.fromkeys(SETTING_PAIRS, 5)
        assert log.classes == dict.fromkeys(SETTING_PAIRS, (0,) * 15 + (5,))
        with pytest.raises(ValueError, match="agreements"):
            TrialLog(0, 5, dict.fromkeys(SETTING_PAIRS, 6), series=log.series)

    def test_requires_four_pairs(self):
        log = run_experiment(constant_model(), 5, seed=0)
        partial = {p: s for p, s in log.series.items() if p != (2, 2)}
        with pytest.raises(ValueError, match="four setting pairs"):
            TrialLog(0, 5, classes=log.classes, series=partial)

    def test_requires_equal_lengths(self):
        log = run_experiment(constant_model(), 5, seed=0)
        with pytest.raises(ValueError, match="expected 6"):
            TrialLog(0, 6, dict.fromkeys(SETTING_PAIRS, 6), series=log.series)

    def test_arrays_frozen(self):
        log = run_experiment(constant_model(), 5, seed=0)
        with pytest.raises(ValueError):
            log.series[(1, 1)].alice[0] = -1
