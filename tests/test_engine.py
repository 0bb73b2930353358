import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.core import ALL_BEHAVIORS, SETTING_PAIRS, Behavior, CorrelationTable, LhvModel
from bellcheck import engine
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
    mi_diagnostic,
    run_experiment,
    theoretical_chsh,
    theoretical_correlations,
    validate_weights,
)
from bellcheck.errors import ModelError
from bellcheck.streams import BLOCK_SIZE
from bellcheck.zoo import conspiracy_model, cosine_sign_model, dice_coin_model
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
        log = run_experiment(dice_coin_model(), n, seed=42)
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

    @pytest.mark.parametrize("n", [True, 2.5, "10"])
    def test_non_integer_n_rejected_before_sampling(self, n):
        def sampler(pair, rng, count):
            raise AssertionError("sampler called")

        with pytest.raises(ValueError, match="n_per_series"):
            engine.count_blocks(sampler, n, seed=0)

    def test_n_past_one_word_block_indices_rejected_before_sampling(self):
        # block indices are mixed into the stream key as one uint32 word
        def sampler(pair, rng, count):
            raise AssertionError("sampler called")

        with pytest.raises(ValueError, match="n_per_series"):
            engine.count_blocks(sampler, BLOCK_SIZE * 2**32 + 1, seed=0)
        with pytest.raises(AssertionError, match="sampler called"):  # the largest n starts sampling
            engine.count_blocks(sampler, BLOCK_SIZE * 2**32, seed=0)


class TestResolveWorkers:
    """BELLCHECK_THREADS: unset or blank means 1 worker; anything other
    than an integer >= 1 is a ValueError naming the variable."""

    def test_unset_and_blank(self, monkeypatch):
        monkeypatch.delenv("BELLCHECK_THREADS", raising=False)
        assert engine._resolve_workers() == 1
        monkeypatch.setenv("BELLCHECK_THREADS", "  ")
        assert engine._resolve_workers() == 1

    def test_integer_values(self, monkeypatch):
        monkeypatch.setenv("BELLCHECK_THREADS", " 3 ")
        assert engine._resolve_workers() == 3
        monkeypatch.setenv("BELLCHECK_THREADS", str(10**6))  # resolved only; no pool starts
        assert engine._resolve_workers() == 10**6

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "2.5", "1e3", "3 workers"])
    def test_bad_values_name_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("BELLCHECK_THREADS", value)
        with pytest.raises(ValueError, match="BELLCHECK_THREADS"):
            engine._resolve_workers()

    @pytest.mark.parametrize("n", [100, 5 * BLOCK_SIZE], ids=["1 block", "5 blocks"])
    def test_pool_bounded_by_the_four_series(self, monkeypatch, n):
        # one task per setting pair, however many blocks a series has
        sizes = []

        class RecordingPool:
            # runs tasks inline, so that no thread starts
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setenv("BELLCHECK_THREADS", "64")
        counts = count_experiment(dice_coin_model(), n, seed=4)
        assert sizes == [4]
        monkeypatch.setenv("BELLCHECK_THREADS", "1")
        assert_same_counts(counts, count_experiment(dice_coin_model(), n, seed=4))


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
        for model in (dice_coin_model(), cosine_sign_model(), conspiracy_model()):
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
