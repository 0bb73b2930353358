import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck.core import ALL_BEHAVIORS, SETTING_PAIRS, Behavior, CorrelationTable
from bellcheck.engine import exact_class_weights, theoretical_correlations
from bellcheck.jointprob import (
    STATS_MATRIX,
    BehaviorStatistics,
    JointProbability,
    _pair_cells,
    chsh_criterion,
    jp_feasible,
    jp_from_lhv,
    statistics_of,
)
from bellcheck.simplex import solve_equality_feasibility
from bellcheck.zoo import conspiracy_model, cosine_sign_model, dice_coin_model

SQ2 = 2 ** 0.5


def zero_marginal_stats(es):
    return BehaviorStatistics(CorrelationTable(*es))


class TestJpFromLhv:
    def test_dice_coin(self):
        jp = jp_from_lhv(dice_coin_model())
        assert jp.weights == {
            Behavior(1, -1, 1, 1): Fraction(1, 2),
            Behavior(1, 1, 1, -1): Fraction(1, 2),
        }

    def test_constant_point_mass(self):
        jp = jp_from_lhv(dice_coin_model(), {Behavior(1, 1, 1, 1): Fraction(1)})
        assert jp.weights == {Behavior(1, 1, 1, 1): Fraction(1)}

    def test_uniform_identity(self):
        w = {beh: Fraction(1, 16) for beh in ALL_BEHAVIORS}
        assert jp_from_lhv(dice_coin_model(), w).weights == w

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            JointProbability({Behavior(1, 1, 1, 1): Fraction(1, 2)})


class TestStatisticsOf:
    def test_dice_coin(self):
        stats = statistics_of(jp_from_lhv(dice_coin_model()))
        assert stats.correlations.as_tuple() == (1, 0, 0, -1)
        # oracle: sum the two behaviors by hand; (1,-1,1,1) and (1,1,1,-1)
        # average to a1=1, a2=0, b1=1, b2=0
        assert stats.marginals() == (1, 0, 1, 0)

    def test_point_mass(self):
        stats = statistics_of(JointProbability({Behavior(1, 1, 1, 1): Fraction(1)}))
        assert stats.correlations.as_tuple() == (1, 1, 1, 1)
        assert stats.marginals() == (1, 1, 1, 1)

    def test_uniform(self):
        jp = JointProbability({beh: Fraction(1, 16) for beh in ALL_BEHAVIORS})
        stats = statistics_of(jp)
        assert stats.correlations.as_tuple() == (0, 0, 0, 0)
        assert stats.marginals() == (0, 0, 0, 0)


class TestChshCriterion:
    def test_dice_table(self):
        all_pass, max_value = chsh_criterion(CorrelationTable(1, 0, 0, -1))
        assert all_pass
        assert max_value == 2

    def test_quantum_table(self):
        table = CorrelationTable(-SQ2 / 2, SQ2 / 2, -SQ2 / 2, -SQ2 / 2)
        all_pass, max_value = chsh_criterion(table)
        assert not all_pass
        assert max_value == pytest.approx(2 * SQ2)

    def test_zero_table(self):
        all_pass, max_value = chsh_criterion(CorrelationTable(0, 0, 0, 0))
        assert all_pass
        assert max_value == 0

    def test_eight_facets_oracle(self):
        # oracle: enumerate all 16 sign patterns; only odd-minus-count
        # patterns reduce to the facet family, and the max over the 8
        # one-term-negated expressions equals the criterion's max
        rng = random.Random(5)
        for _ in range(50):
            es = [Fraction(rng.randint(-8, 8), 8) for _ in range(4)]
            _, max_value = chsh_criterion(CorrelationTable(*es))
            expected = max(
                abs(sum(e if j != neg else -e for j, e in enumerate(es)))
                for neg in range(4)
            )
            assert max_value == expected


class TestJpFeasible:
    def test_dice_stats_feasible(self):
        stats = statistics_of(jp_from_lhv(dice_coin_model()))
        result = jp_feasible(stats)
        assert result.feasible
        assert result.certificate is None
        reproduced = statistics_of(result.witness)
        assert reproduced.correlations.as_tuple() == stats.correlations.as_tuple()
        assert reproduced.marginals() == stats.marginals()

    def test_pr_box_infeasible(self):
        stats = zero_marginal_stats([Fraction(1), Fraction(1), Fraction(1), Fraction(-1)])
        result = jp_feasible(stats)
        assert not result.feasible
        assert result.witness is None
        assert result.certificate.signs == (1, 1, 1, -1)
        assert result.certificate.value == 4

    def test_zero_stats_feasible(self):
        result = jp_feasible(zero_marginal_stats([Fraction(0)] * 4))
        assert result.feasible

    def test_float_path(self):
        result = jp_feasible(BehaviorStatistics(CorrelationTable(0.5, 0.0, 0.0, -0.5)))
        assert result.feasible
        arr = np.array([float(result.witness.weights.get(b, 0)) for b in ALL_BEHAVIORS])
        stats_vec = np.array(STATS_MATRIX, dtype=float) @ arr
        expected = [0.5, 0.0, 0.0, -0.5, 0, 0, 0, 0, 1]
        assert np.allclose(stats_vec, expected, atol=1e-9)

    def test_float_path_infeasible(self):
        result = jp_feasible(BehaviorStatistics(CorrelationTable(1.0, 1.0, 1.0, -1.0)))
        assert not result.feasible
        assert result.certificate is not None

    def test_exact_witness_reproduces_stats(self):
        rng = random.Random(11)
        checked = 0
        while checked < 25:
            es = [Fraction(rng.randint(-12, 12), 12) for _ in range(4)]
            result = jp_feasible(zero_marginal_stats(es))
            if not result.feasible:
                continue
            checked += 1
            got = statistics_of(result.witness)
            assert got.correlations.as_tuple() == tuple(es)
            assert got.marginals() == (0, 0, 0, 0)
            assert all(w >= 0 for w in result.witness.weights.values())


class TestFineAEquivalence:
    @given(st.lists(st.integers(min_value=-16, max_value=16), min_size=4, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_zero_marginals_biconditional(self, nums):
        es = [Fraction(n, 16) for n in nums]
        stats = zero_marginal_stats(es)
        all_pass, _ = chsh_criterion(stats.correlations)
        assert jp_feasible(stats).feasible == all_pass

    def test_nonzero_marginals_forward_direction(self):
        # jp feasible => facets pass; reverse disagreements are collected
        # and reported (none are expected: with per-pair cell validity
        # enforced at construction the facets are the whole boundary)
        rng = random.Random(23)
        reverse_disagreements = []
        for _ in range(300):
            weights = [rng.randint(0, 6) for _ in range(16)]
            total = sum(weights) or 1
            jp = JointProbability(
                {b: Fraction(n, total) for b, n in zip(ALL_BEHAVIORS, weights) if n}
            )
            stats = statistics_of(jp)
            if rng.random() < 0.5:
                stats = _push_correlations_outward(stats, Fraction(rng.randint(1, 4), 8))
                if stats is None:
                    continue
            feasible = jp_feasible(stats).feasible
            all_pass, _ = chsh_criterion(stats.correlations)
            if feasible:
                assert all_pass
            elif all_pass:
                reverse_disagreements.append(stats)
        if reverse_disagreements:
            print(f"facets passed but no JP existed for {len(reverse_disagreements)} inputs:")
            for s in reverse_disagreements:
                print("  ", s)
        assert not reverse_disagreements


def _facet_value(signs, beh):
    """One class's value on the facet with the given signs."""
    return sum(s * beh.alice(i) * beh.bob(k) for s, (i, k) in zip(signs, SETTING_PAIRS))


_FACET_SIGNS = [
    tuple(sign * (-1 if j == neg else 1) for j in range(4))
    for neg in range(4)
    for sign in (1, -1)
]


def _push_correlations_outward(stats, step):
    """Scale correlations away from zero, keeping per-pair tables valid."""
    es = [e + step * (1 if e >= 0 else -1) for e in stats.correlations.as_tuple()]
    es = [max(Fraction(-1), min(Fraction(1), e)) for e in es]
    try:
        return BehaviorStatistics(CorrelationTable(*es), *stats.marginals())
    except ValueError:
        return None


class TestFineBSoundness:
    @pytest.mark.parametrize(
        "factory", [dice_coin_model, cosine_sign_model, conspiracy_model]
    )
    def test_statistics_match_theoretical_correlations(self, factory):
        model = factory()
        weights = exact_class_weights(model, (1, 1))
        stats = statistics_of(jp_from_lhv(model, weights))
        assert stats.correlations.as_tuple() == theoretical_correlations(weights).as_tuple()

    def test_dice_counterexample_has_jp(self):
        # incompatible measurements (each station reads one coin face per
        # trial), yet the statistics admit a joint distribution
        stats = statistics_of(jp_from_lhv(dice_coin_model()))
        assert jp_feasible(stats).feasible


class TestBehaviorStatisticsValidation:
    def test_rejects_invalid_pair_table(self):
        # E = -1 with both marginals +1 leaves the (-,-) cell negative
        message = r"^pair \(1,1\) admits no outcome table: cell \(-1,-1\) has weight -1/2 < 0$"
        with pytest.raises(ValueError, match=message):
            BehaviorStatistics(
                CorrelationTable(Fraction(-1), Fraction(0), Fraction(0), Fraction(0)),
                Fraction(1), Fraction(0), Fraction(1), Fraction(0),
            )

    def test_rejects_out_of_range_marginal(self):
        with pytest.raises(ValueError):
            BehaviorStatistics(CorrelationTable(0, 0, 0, 0), 2, 0, 0, 0)

    def test_valid_nonzero_marginals_accepted(self):
        BehaviorStatistics(
            CorrelationTable(Fraction(1), Fraction(0), Fraction(0), Fraction(-1)),
            Fraction(1), Fraction(0), Fraction(1), Fraction(0),
        )


class TestSimplexSolver:
    def test_agrees_with_scipy_on_random_instances(self):
        from scipy.optimize import linprog

        rng = random.Random(3)
        a_np = np.array(STATS_MATRIX, dtype=float)
        for _ in range(120):
            den = rng.choice([4, 6, 10, 64])
            b = [Fraction(rng.randint(-den, den), den) for _ in range(8)] + [Fraction(1)]
            feasible, x = solve_equality_feasibility(STATS_MATRIX, b)
            res = linprog(
                c=np.zeros(16),
                A_eq=a_np,
                b_eq=np.array([float(v) for v in b]),
                bounds=[(0, None)] * 16,
                method="highs",
            )
            assert feasible == (res.status == 0)
            if feasible:
                for row, target in zip(STATS_MATRIX, b):
                    assert sum(c * xi for c, xi in zip(row, x)) == target

    def test_simple_instances(self):
        feasible, x = solve_equality_feasibility([[1, 1]], [Fraction(1)])
        assert feasible and sum(x) == 1
        feasible, _ = solve_equality_feasibility([[1, 1], [1, -1]], [Fraction(1), Fraction(3)])
        assert not feasible  # would need x1 = 2, x2 = -1
        feasible, x = solve_equality_feasibility([], [])
        assert feasible and x == []

    def test_negative_rhs_handled(self):
        feasible, x = solve_equality_feasibility([[-1, 0], [0, 1]], [Fraction(-2), Fraction(1)])
        assert feasible
        assert x == [Fraction(2), Fraction(1)]

    def test_fuzz_random_shapes_against_scipy(self):
        from scipy.optimize import linprog

        rng = random.Random(77)
        for _ in range(300):
            m = rng.randint(1, 5)
            n = rng.randint(1, 8)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            b = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(m)]
            feasible, x = solve_equality_feasibility(a, b)
            res = linprog(
                c=np.zeros(n),
                A_eq=np.array(a, dtype=float),
                b_eq=np.array([float(v) for v in b]),
                bounds=[(0, None)] * n,
                method="highs",
            )
            assert feasible == (res.status == 0), (a, b)
            if feasible:
                assert all(xi >= 0 for xi in x)
                for row, target in zip(a, b):
                    assert sum(c * xi for c, xi in zip(row, x)) == target


class TestFacetsVsSimplex:
    """Fine's facet test against an independent route: the exact simplex
    over the 16 class vertices, called directly."""

    def test_rational_nonzero_marginals(self):
        rng = random.Random(2002)
        # half the mixtures use only the classes that reach +2 on one facet,
        # so that pushing their correlations outward often crosses it
        checked = infeasible = 0
        while checked < 2000:
            signs = rng.choice(_FACET_SIGNS) if rng.random() < 0.5 else None
            weights = [
                rng.randint(0, 6)
                if signs is None or _facet_value(signs, b) == 2
                else 0
                for b in ALL_BEHAVIORS
            ]
            total = sum(weights)
            if not total:
                continue
            jp = JointProbability(
                {b: Fraction(n, total) for b, n in zip(ALL_BEHAVIORS, weights) if n}
            )
            stats = statistics_of(jp)
            if rng.random() < 0.6:
                stats = _push_correlations_outward(stats, Fraction(rng.randint(1, 8), 8))
                if stats is None:
                    continue
            if not any(stats.marginals()):
                continue
            checked += 1
            rhs = list(stats.correlations.as_tuple()) + list(stats.marginals()) + [1]
            simplex_feasible, _ = solve_equality_feasibility(
                STATS_MATRIX, [Fraction(v) for v in rhs]
            )
            all_pass, max_value = chsh_criterion(stats.correlations)
            assert simplex_feasible == all_pass, stats
            if not simplex_feasible:
                infeasible += 1
                certificate = jp_feasible(stats).certificate
                assert certificate.value > 2
                assert certificate.value == max_value
                es = stats.correlations.as_tuple()
                assert certificate.value == sum(s * e for s, e in zip(certificate.signs, es))
        # both verdicts are well represented
        assert infeasible >= 100 and checked - infeasible >= 1000, infeasible

    def test_float_boundary_mixtures_are_feasible(self):
        # Mixtures of classes that all reach +2 on one facet sit exactly on
        # that facet, and leaving classes out puts pair cells at exactly 0.
        # Float rounding pushes some of them just outside: a facet value
        # in (2, 2 + 1e-9] or a cell of about -1e-17. Within tolerance,
        # they are feasible and get a witness for their own statistics.
        rng = np.random.default_rng(17)
        saturating = [b for b in ALL_BEHAVIORS if _facet_value((1, 1, 1, -1), b) == 2]
        over_facet = under_cell = 0
        for _ in range(3000):
            k = int(rng.integers(2, 6))
            chosen = rng.choice(len(saturating), size=k, replace=False)
            weights = rng.dirichlet(np.ones(k))
            jp = JointProbability(
                {saturating[c]: float(w) for c, w in zip(chosen, weights)}
            )
            stats = statistics_of(jp)
            es, ms = stats.correlations.as_tuple(), stats.marginals()
            _, max_value = chsh_criterion(stats.correlations)
            cells = [
                1 + a * ms[i - 1] + b * ms[k + 1] + a * b * e
                for (i, k), e in zip(SETTING_PAIRS, es)
                for a in (-1, 1)
                for b in (-1, 1)
            ]
            if not (max_value > 2 or min(cells) < 0):
                continue
            assert max_value <= 2 + 1e-9
            over_facet += max_value > 2
            under_cell += min(cells) < 0
            result = jp_feasible(stats)
            assert result.feasible
            assert all(w >= 0 for w in result.witness.weights.values())
            got = statistics_of(result.witness)
            got_vec = list(got.correlations.as_tuple()) + list(got.marginals())
            assert max(abs(g - v) for g, v in zip(got_vec, list(es) + list(ms))) <= 1e-9
        assert over_facet >= 20 and under_cell >= 20, (over_facet, under_cell)


def _split(rng, total, parts):
    """A random composition of ``total`` into ``parts`` nonnegative integers."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _differential_case(rng):
    """Exact statistics as integer numerators over a denominator up to 97:
    a mixture of class vertices (sparse, a single vertex, the uniform
    distribution, classes on one facet or classes sharing one outcome, so
    that a marginal is +-1), or raw statistics and facet mixtures pushed
    across their facet, which are often infeasible. Returns (numerators,
    denominator, stats), or None when the draw admits no valid pair
    tables."""
    kind = rng.choices(
        ["sparse", "single", "uniform", "facet", "fixed", "raw", "pushed"],
        weights=[3, 1, 1, 3, 3, 3, 3],
    )[0]
    den = rng.randint(1, 97)
    if kind == "raw":
        spread = rng.choice([0, den // 4])
        nums = [rng.randint(-den, den) for _ in range(4)]
        nums += [rng.randint(-spread, spread) for _ in range(4)]
    else:
        if kind == "uniform":
            den = 16 * rng.randint(1, 6)
            support = list(ALL_BEHAVIORS)
            counts = [den // 16] * 16
        else:
            if kind in ("facet", "pushed"):
                signs = rng.choice(_FACET_SIGNS)
                pool = [b for b in ALL_BEHAVIORS if _facet_value(signs, b) == 2]
            elif kind == "fixed":
                coordinate, value = rng.randrange(4), rng.choice((-1, 1))
                pool = [b for b in ALL_BEHAVIORS if b.outcomes()[coordinate] == value]
            else:
                pool = list(ALL_BEHAVIORS)
            size = 1 if kind == "single" else rng.randint(1, min(len(pool), 8))
            support = rng.sample(pool, size)
            counts = _split(rng, den, size)
        nums = [sum(n * row[b.code] for b, n in zip(support, counts)) for row in STATS_MATRIX[:8]]
        if kind == "pushed":
            # across the facet the mixture sits on, to 2 + 4*step/den
            step = rng.randint(1, max(1, den // 8))
            nums[:4] = [e + s * step for e, s in zip(nums[:4], signs)]
    values = [Fraction(n, den) for n in nums]
    try:
        return nums, den, BehaviorStatistics(CorrelationTable(*values[:4]), *values[4:])
    except ValueError:
        return None


class TestClosedFormVsSimplex:
    """Fine's closed-form witness of jp_feasible against the exact simplex
    over the 16 class vertices, an independent route to the same verdict."""

    def test_exact_cases(self):
        rng = random.Random(2014)
        checked = infeasible = tied = empty_glue_cell = 0
        while checked < 10_000:
            case = _differential_case(rng)
            if case is None:
                continue
            nums, den, stats = case
            checked += 1
            rhs = [Fraction(n, den) for n in nums] + [1]
            simplex_feasible, _ = solve_equality_feasibility(STATS_MATRIX, rhs)
            result = jp_feasible(stats)
            assert result.feasible == simplex_feasible, stats
            if not result.feasible:
                infeasible += 1
                continue
            tied += chsh_criterion(stats.correlations)[1] == 2
            empty_glue_cell += abs(nums[6]) == den or abs(nums[7]) == den
            x = [result.witness.weights.get(b, Fraction(0)) for b in ALL_BEHAVIORS]
            assert all(isinstance(w, Fraction) and w >= 0 for w in x), stats
            # every row exactly, in integers over the witness's denominator
            scale = math.lcm(*(w.denominator for w in x))
            x_int = [w.numerator * (scale // w.denominator) for w in x]
            for row, target in zip(STATS_MATRIX, nums + [den]):
                assert sum(c * w for c, w in zip(row, x_int)) * den == target * scale, stats
        assert infeasible >= 500 and tied >= 1000 and empty_glue_cell >= 1000, (
            infeasible, tied, empty_glue_cell,
        )

    @pytest.mark.parametrize(
        "es,ms",
        [
            # the facet e11 + e12 + e21 - e22 at 2 + 5e-10
            ((0.5 + 5e-10, 0.5, 0.5, -0.5), (0.0, 0.0, 0.0, 0.0)),
            # pair (1,1) cell (-,-) at -4e-13
            ((1 - 4e-13, 0.0, 0.0, -1.0), (1.0, 0.0, 1.0, 0.0)),
            # m_b2 just below -1: the (B1, B2) cells with b2 = +1 are empty
            ((0.0, 0.0, 0.25, 0.5), (0.0, -0.5, 0.0, -1 - 5e-13)),
        ],
    )
    def test_float_statistics_just_outside(self, es, ms):
        self._check_float_witness(BehaviorStatistics(CorrelationTable(*es), *ms))

    def test_float_boundary_points_nudged_outside(self):
        # exact points on a facet or with an empty pair cell, as floats
        # nudged by up to 3e-13 per statistic
        rng = random.Random(1982)
        outside = 0
        for _ in range(2000):
            case = _differential_case(rng)
            if case is None:
                continue
            nums, den, _ = case
            values = [n / den + rng.uniform(-3e-13, 3e-13) for n in nums]
            try:
                nudged = BehaviorStatistics(CorrelationTable(*values[:4]), *values[4:])
            except ValueError:
                continue
            facets_pass, max_value = chsh_criterion(nudged.correlations)
            if not facets_pass:
                continue
            cells = [cell for *_, cell in _pair_cells(values[:4], values[4:])]
            outside += max_value > 2 or min(cells) < 0
            self._check_float_witness(nudged)
        assert outside >= 200, outside

    @staticmethod
    def _check_float_witness(stats):
        result = jp_feasible(stats)
        assert result.feasible
        x = [result.witness.weights.get(b, 0.0) for b in ALL_BEHAVIORS]
        assert all(isinstance(w, float) and w >= 0 for w in x)
        target = list(stats.correlations.as_tuple()) + list(stats.marginals()) + [1]
        for row, want in zip(STATS_MATRIX, target):
            assert abs(sum(c * w for c, w in zip(row, x)) - want) <= 1e-9, stats


def test_float32_statistics():
    # numpy float32 values are taken at their exact binary values too
    es = np.array([0.5, 0.25, 0.125, -0.5], dtype=np.float32)
    ms = np.array([0.125, 0.0, -0.25, 0.0], dtype=np.float32)
    result = jp_feasible(BehaviorStatistics(CorrelationTable(*es), *ms))
    assert result.feasible
    got = statistics_of(result.witness)
    got_vec = list(got.correlations.as_tuple()) + list(got.marginals())
    assert np.allclose(got_vec, list(es) + list(ms), rtol=0, atol=1e-12)
