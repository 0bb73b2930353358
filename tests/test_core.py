from fractions import Fraction

import numpy as np
import pytest

from bellcheck.core import (
    ALL_BEHAVIORS,
    DOMAIN_SLACK,
    VERDICT_SLACK,
    Behavior,
    CorrelationTable,
    LhvModel,
    behavior_codes,
    behavior_of,
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

    def test_index_accessors(self):
        beh = Behavior(1, -1, -1, 1)
        assert (beh.alice(1), beh.alice(2), beh.bob(1), beh.bob(2)) == (1, -1, -1, 1)


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
