from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest

from bellcheck import core, jointprob
from bellcheck.core import (
    ALL_BEHAVIORS,
    DOMAIN_SLACK,
    VERDICT_SLACK,
    Behavior,
    CorrelationTable,
    LhvModel,
    _check_unit_interval,
    behavior_codes,
    behavior_of,
    is_exact,
    within,
)
from bellcheck.zoo import conspiracy_model, cosine_sign_model, dice_coin_model


def constant_model(a=1, b=1):
    return LhvModel(
        name="constant",
        respond_alice=lambda i, lam: a,
        respond_bob=lambda i, lam: b,
        sample_lambda=lambda rng, n, pair: np.zeros(n, dtype=np.int64),
        declares_mi=True,
    )


class TestBehaviorOf:
    def test_dice_coin_odd_lambda(self):
        # oracle: a**lam, b**(lam+1) at lam=1 with a,b = +1 (index 1), -1 (index 2)
        # A1 = 1**1, A2 = (-1)**1, B1 = 1**2, B2 = (-1)**2
        assert behavior_of(dice_coin_model(), 1) == Behavior(1, -1, 1, 1)

    def test_dice_coin_even_lambda(self):
        # same oracle at lam=2: A2 = (-1)**2 = +1, B2 = (-1)**3 = -1
        assert behavior_of(dice_coin_model(), 2) == Behavior(1, 1, 1, -1)

    def test_constant_model(self):
        for lam in (0, 1, "anything"):
            assert behavior_of(constant_model(), lam) == Behavior(1, 1, 1, 1)

    def test_purity(self):
        model = dice_coin_model()
        for lam in range(1, 7):
            assert behavior_of(model, lam) == behavior_of(model, lam)

    @pytest.mark.parametrize(
        "model,domain",
        [
            (dice_coin_model(), range(1, 7)),
            (cosine_sign_model(), range(720)),
            (conspiracy_model(), range(16)),
        ],
    )
    def test_image_at_most_16(self, model, domain):
        image = {behavior_of(model, lam) for lam in domain}
        assert len(image) <= 16

    def test_batch_matches_scalar(self):
        model = dice_coin_model()
        lams = np.arange(1, 7)
        codes = behavior_codes(model, lams)
        assert [ALL_BEHAVIORS[c] for c in codes] == [behavior_of(model, l) for l in lams]

    def test_batch_fallback_without_vectorized_responses(self):
        model = constant_model()
        codes = behavior_codes(model, np.zeros(5, dtype=np.int64))
        assert all(ALL_BEHAVIORS[c] == Behavior(1, 1, 1, 1) for c in codes)


class TestBehavior:
    def test_exactly_sixteen(self):
        assert len(ALL_BEHAVIORS) == 16
        assert len(set(ALL_BEHAVIORS)) == 16

    def test_code_roundtrip(self):
        for code in range(16):
            assert Behavior.from_code(code).code == code

    def test_compact_roundtrip(self):
        for beh in ALL_BEHAVIORS:
            assert Behavior.from_compact(beh.compact()) == beh

    def test_hash_is_the_outcome_tuples_hash(self):
        # computed once at construction; set order follows it, so it must not change
        for beh in ALL_BEHAVIORS:
            built = (beh, Behavior(*beh.outcomes()), Behavior.from_code(beh.code), Behavior.from_compact(beh.compact()))
            assert {hash(b) for b in built} == {hash((beh.a1, beh.a2, beh.b1, beh.b2))}
        assert list({Behavior.from_code(c) for c in range(16)}) == list(set(ALL_BEHAVIORS))

    def test_rejects_non_unit_outcomes(self):
        with pytest.raises(ValueError):
            Behavior(0, 1, 1, 1)
        with pytest.raises(ValueError):
            Behavior(1, 1, 1, 2)

    @pytest.mark.parametrize("value", [1 + 0j, -1 + 0j, np.complex64(1), np.complex128(-1)], ids=repr)
    def test_complex_outcome_is_refused_by_the_unit_rule(self, value):
        # a complex value equals +-1 and hashes as one; the +-1 rule refuses
        # it with its own message, not a bare TypeError from int()
        for check in (core.validate_outcome, lambda v: Behavior(v, 1, 1, 1)):
            with pytest.raises(ValueError) as info:
                check(value)
            assert str(info.value) == f"outcome must be -1 or +1, got {value!r}"
        assert [core.validate_outcome(v) for v in (True, 1.0, np.float32(-1), Fraction(1))] == [1, 1, -1, 1]

    def test_index_accessors(self):
        beh = Behavior(1, -1, -1, 1)
        assert (beh.alice(1), beh.alice(2), beh.bob(1), beh.bob(2)) == (1, -1, -1, 1)

    @pytest.mark.parametrize("index", [0, 3, -1, 5, None, "1"])
    def test_index_outside_1_2_raises(self, index):
        # no index but 1 or 2 may fall through to the second setting
        for accessor in (Behavior(1, -1, -1, 1).alice, Behavior(1, -1, -1, 1).bob):
            with pytest.raises(ValueError) as info:
                accessor(index)
            assert str(info.value) == f"setting index must be 1 or 2, got {index!r}"


class TestValidation:
    def test_correlation_table_range(self):
        CorrelationTable(1.0, -1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            CorrelationTable(1.5, 0.0, 0.0, 0.0)

    def test_tolerance_policy(self):
        # exact values get no slack, floats the slack of their check
        assert within(Fraction(2), 2, VERDICT_SLACK)
        assert not within(2 + Fraction(1, 10**15), 2, VERDICT_SLACK)
        assert within(2 + 1e-10, 2, VERDICT_SLACK)
        assert not within(2 + 1e-10, 2, DOMAIN_SLACK)
        assert not within(float("nan"), 2, VERDICT_SLACK)
        CorrelationTable(1 + 1e-13, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CorrelationTable(1 + Fraction(1, 10**13), 0, 0, 0)
        with pytest.raises(ValueError):
            CorrelationTable(float("nan"), 0.0, 0.0, 0.0)

    def test_correlation_table_lookup(self):
        t = CorrelationTable(0.1, 0.2, 0.3, 0.4)
        assert t.value((1, 1)) == 0.1
        assert t.value((2, 1)) == 0.3
        assert [t.value(pair) for pair in core.SETTING_PAIRS] == [0.1, 0.2, 0.3, 0.4]
        assert t.value([1, 2]) == t.value(np.array([1, 2])) == 0.2

    @pytest.mark.parametrize("pair", [(0, 0), (1, 0), (0, 2), (3, 1), (1, 1, 1), (1,), 1, None, [[1], [1]]])
    def test_correlation_table_refuses_a_pair_outside_1_2(self, pair):
        # (0, 0) and (1, 0) land on real entries (e12, e22) under 2*(i - 1) + (k - 1)
        with pytest.raises(ValueError) as info:
            CorrelationTable(0.1, 0.2, 0.3, 0.4).value(pair)
        assert str(info.value) == f"setting pair must be one of {core.SETTING_PAIRS}, got {pair!r}"

    def test_bad_model_response_detected(self):
        broken = LhvModel(
            name="broken",
            respond_alice=lambda i, lam: 0,
            respond_bob=lambda i, lam: 1,
            sample_lambda=lambda rng, n, pair: np.zeros(n, dtype=np.int64),
            declares_mi=True,
        )
        with pytest.raises(ValueError):
            behavior_of(broken, 0)


# Copies of the type tests before `is_exact`, which took the numbers.Rational
# ABC check for every value: the exact-type checks must decide as they did.
def _abc_within(value, limit, slack) -> bool:
    if isinstance(value, Rational):
        return value <= limit
    return float(value) <= limit + slack


def _abc_check_unit_interval(name: str, value) -> None:
    if not (abs(value.numerator) <= abs(value.denominator) if isinstance(value, Rational)
            else _abc_within(value, 1, DOMAIN_SLACK) and _abc_within(-value, 1, DOMAIN_SLACK)):
        raise ValueError(f"{name} must lie in [-1, 1], got {value}")


class _FractionSubclass(Fraction):
    pass


#: Floats (-0.0, NaN, the infinities, 1 +- DOMAIN_SLACK and past it), numpy
#: scalars, bools, ints, Fractions and a Fraction subclass, in [-1, 1] and out
TYPED_VALUES = [
    0.5, -0.0, float("nan"), float("inf"), float("-inf"),
    1 + DOMAIN_SLACK, 1 - DOMAIN_SLACK, -1 - DOMAIN_SLACK, 1 + 2 * DOMAIN_SLACK, 2 + VERDICT_SLACK / 2,
    np.float64(0.25), np.float64(1 + DOMAIN_SLACK), np.float64(-1 - 2 * DOMAIN_SLACK), np.float64("nan"),
    np.int64(1), np.int64(-1), np.int64(3),
    True, False, 0, 1, -1, 2,
    Fraction(1, 3), Fraction(-4, 3), Fraction(2), _FractionSubclass(1, 2), _FractionSubclass(-5, 4),
]


def _outcome(call, *args):
    """What ``call(*args)`` gives: its result's type and repr, or its error's."""
    try:
        result = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), repr(result)


class TestExactTypeChecks:
    """``within``, ``_check_unit_interval`` and ``BehaviorStatistics`` tell a
    float or a Fraction by its exact type before the ABC check; each must
    give the verdict, the scaling and the message of the ABC check alone."""

    @pytest.mark.parametrize("value", TYPED_VALUES, ids=repr)
    def test_within_decides_as_the_abc_check(self, value):
        assert is_exact(value) is isinstance(value, Rational)
        for limit in (0, 1, 2):
            for slack in (DOMAIN_SLACK, VERDICT_SLACK):
                for v in (value, -value):
                    assert _outcome(within, v, limit, slack) == _outcome(_abc_within, v, limit, slack)

    @pytest.mark.parametrize("value", TYPED_VALUES, ids=repr)
    def test_unit_interval_check_decides_as_the_abc_check(self, value):
        assert _outcome(_check_unit_interval, "e11", value) == _outcome(_abc_check_unit_interval, "e11", value)

    @pytest.mark.parametrize("value", TYPED_VALUES, ids=repr)
    def test_behavior_statistics_scale_as_with_the_abc_check(self, value, monkeypatch):
        placements = [
            ((value, 0, 0, 0), (0, 0, 0, 0)),
            ((value,) * 4, (Fraction(0),) * 4),
            ((0, Fraction(1, 2), 0, 0), (0, 0, value, 0)),
            ((value, 0.0, 0, 0), (0, 0, 0, 0)),
        ]

        def build(es, ms):
            stats = jointprob.BehaviorStatistics(CorrelationTable(*es), *ms)
            return repr(stats.scaled), repr(stats.facet)

        exact = [_outcome(build, *p) for p in placements]
        monkeypatch.setattr(core, "within", _abc_within)
        monkeypatch.setattr(core, "_check_unit_interval", _abc_check_unit_interval)
        monkeypatch.setattr(jointprob, "within", _abc_within)
        monkeypatch.setattr(jointprob, "_check_unit_interval", _abc_check_unit_interval)
        monkeypatch.setattr(jointprob, "is_exact", lambda v: isinstance(v, Rational))
        assert exact == [_outcome(build, *p) for p in placements]
