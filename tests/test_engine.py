import dataclasses
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.core import ALL_BEHAVIORS, SETTING_PAIRS, Behavior, CorrelationTable, LhvModel
from bellcheck import engine, streams
from bellcheck.engine import (
    ChshReport,
    RunCounts,
    Series,
    TrialLog,
    chsh_report,
    chsh_statistic,
    class_frequencies,
    count_experiment,
    empirical_table,
    exact_class_frequencies,
    exact_class_weights,
    exact_correlation_table,
    hoeffding_epsilon,
    log_counts,
    mi_diagnostic,
    run_experiment,
    theoretical_chsh,
    theoretical_correlations,
    validate_weights,
    violation_p_value,
)
from bellcheck.errors import ModelError
from bellcheck.quantum import TSIRELSON_ANGLES, count_quantum_experiment, quantum_chsh
from bellcheck.streams import BLOCK_SIZE
from bellcheck.zoo import conspiracy_model, cosine_sign_model, dice_coin_model
from batch_models import lookup_twins, without_distribution
from trial_reference import assert_same_counts

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
    series = {}
    for pair in SETTING_PAIRS:
        alice = np.array([model.respond_alice(pair[0], l) for l in lams], dtype=np.int8)
        bob = np.array([model.respond_bob(pair[1], l) for l in lams], dtype=np.int8)
        series[pair] = Series(pair, alice, bob, lams.copy())
    return TrialLog(series=series, seed=0, n_per_series=len(lams))


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

    def test_worker_count_invariance(self, monkeypatch):
        monkeypatch.setenv("BELLCHECK_THREADS", "1")
        a = count_experiment(dice_coin_model(), 50_000, seed=3)
        monkeypatch.setenv("BELLCHECK_THREADS", "4")
        b = count_experiment(dice_coin_model(), 50_000, seed=3)
        assert_same_counts(a, b)

    def test_env_var_worker_cap(self, monkeypatch):
        monkeypatch.setenv("BELLCHECK_THREADS", "3")
        a = count_experiment(dice_coin_model(), 20_000, seed=5)
        monkeypatch.delenv("BELLCHECK_THREADS")
        b = count_experiment(dice_coin_model(), 20_000, seed=5)
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
        monkeypatch.setattr(streams, "trial_stream", no_stream)
        with pytest.raises(ValueError, match="n_per_series"):
            run(n, 0)

    @pytest.mark.parametrize("run", COUNT_RUNS, ids=["declared", "singlet"])
    def test_n_past_one_word_block_indices_rejected_before_sampling(self, run, monkeypatch):
        # block indices are mixed into the stream key as one uint32 word,
        # and every run keeps the tag path's limit
        monkeypatch.setattr(streams, "trial_stream", no_stream)
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
        "trial log": lambda n: log_counts(run_experiment(model, n, 5), model),
    }
    for name, run in runs.items():
        got = run(size(200))
        assert type(got.n_per_series) is int, name
        assert_same_counts(got, run(200))
    assert type(run_experiment(model, size(200), 5).n_per_series) is int


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
    tags, log = count_experiment(model, n, seed=6), log_counts(run_experiment(model, n, 6), model)
    monkeypatch.setenv("BELLCHECK_THREADS", value)
    assert_same_counts(count_experiment(model, n, seed=6), tags)
    assert_same_counts(log_counts(run_experiment(model, n, 6), model), log)


def test_every_series_samples_on_the_calling_thread(monkeypatch):
    """BELLCHECK_THREADS is not read: the tag path and the trial log call
    sample_lambda on the calling thread alone."""
    monkeypatch.setenv("BELLCHECK_THREADS", "4")
    threads = set()
    model = without_distribution(dice_coin_model())

    def sample_lambda(rng, n, pair):
        threads.add(threading.get_ident())
        return model.sample_lambda(rng, n, pair)

    recording = dataclasses.replace(model, sample_lambda=sample_lambda)
    count_experiment(recording, 3 * BLOCK_SIZE, seed=8)
    run_experiment(recording, 3 * BLOCK_SIZE, seed=8)
    assert threads == {threading.get_ident()}


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

    def test_never_more_than_16_classes(self):
        for model in map(lookup_twins, (dice_coin_model(), cosine_sign_model(), conspiracy_model())):
            log = run_experiment(model, 5000, seed=11)
            freqs = class_frequencies(log, model)
            assert all(len(inner) <= 16 for inner in freqs.per_pair.values())


class TestTheoreticalCorrelations:
    def test_dice_weights(self):
        table = theoretical_correlations(DICE_WEIGHTS)
        assert table.as_tuple() == (1, 0, 0, -1)
        assert table.is_exact

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


class TestMiDiagnostic:
    def test_dice_exact_holds(self):
        mi = mi_diagnostic(exact_class_frequencies(dice_coin_model()), tolerance=1e-12)
        assert mi.holds
        assert mi.max_deviation == 0

    def test_conspiracy_fails(self):
        mi = mi_diagnostic(exact_class_frequencies(conspiracy_model()), tolerance=1e-12)
        assert not mi.holds
        assert mi.max_deviation == 1.0
        assert mi.worst_pair in SETTING_PAIRS[1:]

    def test_requires_all_four_pairs(self):
        from bellcheck.engine import ClassFrequencies

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

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            ChshReport(
                table=CorrelationTable(1, 0, 0, -1),
                s_star=1.0,
                bound_satisfied=True,
                n_per_series=10,
                hoeffding_epsilon=0.1,
                violation_p_value=1.0,
                violation_significant=False,
            )

    def test_hoeffding_formula(self):
        n = 100_000
        assert hoeffding_epsilon(n) == pytest.approx(2 * math.sqrt(math.log(200) / (2 * n)))
        with pytest.raises(ValueError):
            hoeffding_epsilon(0)
        with pytest.raises(ValueError):
            hoeffding_epsilon(10, delta=1.5)

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


class TestExactTables:
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
    def test_requires_four_pairs(self):
        log = run_experiment(constant_model(), 5, seed=0)
        partial = {p: s for p, s in log.series.items() if p != (2, 2)}
        with pytest.raises(ValueError):
            TrialLog(series=partial, seed=0, n_per_series=5)

    def test_requires_equal_lengths(self):
        log = run_experiment(constant_model(), 5, seed=0)
        with pytest.raises(ValueError):
            TrialLog(series=log.series, seed=0, n_per_series=6)

    def test_arrays_frozen(self):
        log = run_experiment(constant_model(), 5, seed=0)
        with pytest.raises(ValueError):
            log.series[(1, 1)].alice[0] = -1
