"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Every test pins its tolerance and its runtime budget.
"""

import json
import math
import random
import time
from fractions import Fraction

from bellcheck import cli
from bellcheck.core import ALL_BEHAVIORS, SETTING_PAIRS, Behavior, CorrelationTable
from bellcheck.engine import (
    chsh_report,
    chsh_statistic,
    class_frequencies,
    count_experiment,
    exact_class_frequencies,
    exact_class_weights,
    exact_correlation_table,
    hoeffding_epsilon,
    mi_diagnostic,
    theoretical_chsh,
    theoretical_correlations,
)
from bellcheck.ghz import check_satisfiable, evaluate_constraint, ghz_constraint_system
from bellcheck.jointprob import (
    BehaviorStatistics,
    chsh_criterion,
    jp_feasible,
    jp_from_lhv,
    statistics_of,
)
from bellcheck.quantum import TSIRELSON_ANGLES, count_quantum_experiment, quantum_chsh
from bellcheck.zoo import conspiracy_model, cosine_sign_model, dice_coin_model


class Budget:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, budget {self.limit_s}s)")
            assert elapsed < self.limit_s, f"{self.name} exceeded its {self.limit_s}s budget"
        else:
            print(f"\nACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_lhv_bound_exact():
    with Budget("1 (single-distribution bound |S| <= 2)", 5):
        rng = random.Random(20240)
        for _ in range(10_000):
            nums = [rng.randint(0, 1000) for _ in range(16)]
            total = sum(nums)
            if total == 0:
                nums[rng.randrange(16)] = 1
                total = 1
            weights = {
                beh: Fraction(n, total) for beh, n in zip(ALL_BEHAVIORS, nums) if n
            }
            s, per_class = theoretical_chsh(weights)  # raises past 2
            assert abs(s) <= 2
            assert all(c in (-2, 2) for c in per_class.values())


def test_criterion_2_dice_coin_reproduction():
    with Budget("2 (dice-coin exact table and sampled convergence)", 30):
        model = dice_coin_model()
        weights = exact_class_weights(model)
        table = theoretical_correlations(weights)
        assert table.as_tuple() == (1, 0, 0, -1)
        s, _ = theoretical_chsh(weights)
        assert s == 0

        n = 100_000
        eps = hoeffding_epsilon(n, delta=0.01)
        exceed = {pair: 0 for pair in SETTING_PAIRS}
        for seed in range(100):
            rep = chsh_report(count_experiment(model, n, seed=seed))
            for pair, exact in zip(SETTING_PAIRS, table.as_tuple()):
                if abs(rep.table.value(pair) - exact) > eps:
                    exceed[pair] += 1
        assert all(count <= 3 for count in exceed.values()), exceed


def test_criterion_3_quantum_violation():
    with Budget("3 (quantum violation at the optimal angles)", 60):
        s_exact = quantum_chsh(TSIRELSON_ANGLES)
        assert abs(s_exact + 2 * math.sqrt(2)) <= 1e-12

        rep = chsh_report(count_quantum_experiment(TSIRELSON_ANGLES, 1_000_000, seed=2024))
        assert 2.80 <= abs(rep.s_star) <= 2.86


def test_criterion_4_ghz_unsatisfiability():
    with Budget("4 (parity constraint system satisfiability)", 1):
        five = check_satisfiable(ghz_constraint_system(math.pi / 2, include_fifth=True))
        assert not five.satisfiable
        assert five.assignments_checked == 256

        four_constraints = ghz_constraint_system(math.pi / 2)
        four = check_satisfiable(four_constraints)
        assert four.satisfiable
        for c in four_constraints:
            assert evaluate_constraint(c, four.witness) == c.target


def test_criterion_5_jp_feasibility_matches_facets():
    with Budget("5 (feasibility <=> facet criterion, zero marginals)", 60):
        rng = random.Random(555)
        denominator = 2048
        disagreements = 0
        for _ in range(10_000):
            es = [
                Fraction(rng.randint(-denominator, denominator), denominator)
                for _ in range(4)
            ]
            stats = BehaviorStatistics(CorrelationTable(*es))
            feasible = jp_feasible(stats).feasible
            all_pass, _ = chsh_criterion(stats.correlations)
            if feasible != all_pass:
                disagreements += 1
        assert disagreements == 0


def test_criterion_6_jp_construction_soundness():
    with Budget("6 (class weights to joint distribution, exact match)", 1):
        for factory in (dice_coin_model, cosine_sign_model, conspiracy_model):
            model = factory()
            weights = exact_class_weights(model, (1, 1))
            stats = statistics_of(jp_from_lhv(model, weights))
            expected = theoretical_correlations(weights)
            assert stats.correlations.as_tuple() == expected.as_tuple()


def test_criterion_7_class_cap():
    with Budget("7 (at most 16 classes; dice-coin has exactly 2)", 60):
        n = 250_000  # four series -> one million sampled trials per model
        for factory in (dice_coin_model, cosine_sign_model, conspiracy_model):
            model = factory()
            freqs = class_frequencies(count_experiment(model, n, seed=77))
            assert all(len(inner) <= 16 for inner in freqs.per_pair.values())
            if model.name == "dice-coin":
                band = math.sqrt(math.log(2 / 0.01) / (2 * n))  # frequency range 1
                for inner in freqs.per_pair.values():
                    assert set(inner) == {Behavior(1, -1, 1, 1), Behavior(1, 1, 1, -1)}
                    assert all(abs(f - 0.5) <= band for f in inner.values())


def test_criterion_8_mi_diagnostic_discriminates():
    with Budget("8 (independence diagnostic and the conspiring source)", 30):
        for factory, expected in (
            (dice_coin_model, True),
            (cosine_sign_model, True),
            (conspiracy_model, False),
        ):
            model = factory()
            mi = mi_diagnostic(exact_class_frequencies(model), tolerance=1e-12)
            assert mi.holds is expected

        n = 100_000
        model = conspiracy_model()
        counts = count_experiment(model, n, seed=88)
        rep = chsh_report(counts)
        assert abs(rep.s_star - 4.0) <= 4 * rep.hoeffding_epsilon
        assert chsh_statistic(exact_correlation_table(model)) == 4

        sampled_tolerance = 3 * hoeffding_epsilon(n, value_range=1.0)
        assert not mi_diagnostic(class_frequencies(counts), sampled_tolerance).holds


def test_criterion_9_reports_reproducible_across_workers(tmp_path, monkeypatch):
    with Budget("9 (byte-identical reports, 1 vs 4 workers)", 60):
        configs = [
            (model, n, seed)
            for model in ("dice-coin", "cosine-sign", "conspiracy", "quantum")
            for n, seed in ((1000, 11), (2000, 22), (5000, 33), (1500, 44), (3000, 55))
        ]
        assert len(configs) == 20
        identical = 0
        for i, (model, n, seed) in enumerate(configs):
            single = tmp_path / f"{i}_single.json"
            multi = tmp_path / f"{i}_multi.json"
            monkeypatch.setenv("BELLCHECK_THREADS", "1")
            assert cli.main(["run", "--model", model, "--n", str(n),
                             "--seed", str(seed), "--out", str(single)]) == 0
            monkeypatch.setenv("BELLCHECK_THREADS", "4")
            assert cli.main(["run", "--model", model, "--n", str(n),
                             "--seed", str(seed), "--out", str(multi)]) == 0
            if single.read_bytes() == multi.read_bytes():
                identical += 1
            json.loads(single.read_text())  # reports stay parseable
        assert identical == 20
