import math
from fractions import Fraction

import pytest

from bellcheck.core import behavior_of
from bellcheck.engine import (
    chsh_report,
    chsh_statistic,
    exact_class_frequencies,
    exact_class_weights,
    exact_correlation_table,
    mi_diagnostic,
    run_experiment,
    theoretical_chsh,
)
from bellcheck.quantum import TSIRELSON_ANGLES
from bellcheck.zoo import (
    available_models,
    conspiracy_model,
    cosine_sign_model,
    dice_coin_model,
    get_model,
)


class TestDiceCoin:
    def test_exact_correlations(self):
        assert exact_correlation_table(dice_coin_model()).as_tuple() == (1, 0, 0, -1)

    def test_theoretical_s_zero(self):
        s, _ = theoretical_chsh(exact_class_weights(dice_coin_model()))
        assert s == 0

    def test_two_classes(self):
        weights = exact_class_weights(dice_coin_model())
        assert len(weights) == 2
        assert set(weights.values()) == {Fraction(1, 2)}


class TestCosineSign:
    def test_equal_angles_anticorrelated(self):
        model = cosine_sign_model(a1=0.8, a2=1.0, b1=0.8, b2=2.0)
        # pair (1,1) has a1 == b1, so every tag gives A*B = -1
        weights = exact_class_weights(model, (1, 1))
        e11 = sum(w * beh.a1 * beh.b1 for beh, w in weights.items())
        assert e11 == -1

    def test_orthogonal_angles_near_zero(self):
        model = cosine_sign_model(a1=0.0, a2=1.0, b1=math.pi / 2, b2=2.0)
        table = exact_correlation_table(model)
        assert abs(float(table.e11)) <= 1e-2

    def test_bound_at_tsirelson_angles(self):
        model = cosine_sign_model()  # defaults to the CHSH-optimal angles
        s, _ = theoretical_chsh(exact_class_weights(model))
        assert abs(s) <= 2


class TestConspiracy:
    def test_empirical_table(self):
        log = run_experiment(conspiracy_model(), 20_000, seed=13)
        rep = chsh_report(log)
        assert rep.table.as_tuple() == (1.0, -1.0, 1.0, 1.0)
        assert rep.s_star == 4.0
        assert not rep.bound_satisfied

    def test_exact_series_s(self):
        assert chsh_statistic(exact_correlation_table(conspiracy_model())) == 4

    def test_mi_fails(self):
        mi = mi_diagnostic(exact_class_frequencies(conspiracy_model()), tolerance=1e-12)
        assert not mi.holds


class TestZooContracts:
    @pytest.mark.parametrize(
        "factory,domain",
        [
            (dice_coin_model, range(1, 7)),
            (cosine_sign_model, range(720)),
            (conspiracy_model, [0, 7, 8, 10]),
        ],
    )
    def test_responses_total_and_unit(self, factory, domain):
        model = factory()
        for lam in domain:
            beh = behavior_of(model, lam)  # validates every response is +-1
            assert beh is not None

    def test_mi_declarations_match_diagnostic(self):
        for factory in (dice_coin_model, cosine_sign_model, conspiracy_model):
            model = factory()
            mi = mi_diagnostic(exact_class_frequencies(model), tolerance=1e-12)
            assert mi.holds == model.declares_mi

    def test_samplers_respect_requested_length(self):
        from bellcheck.streams import trial_stream

        for factory in (dice_coin_model, cosine_sign_model, conspiracy_model):
            model = factory()
            tags = model.sample_lambda(trial_stream(0, 0, 0), 100, (1, 2))
            assert len(tags) == 100


class TestRegistry:
    def test_names(self):
        assert available_models() == ["conspiracy", "cosine-sign", "dice-coin"]

    def test_get_model(self):
        assert get_model("dice-coin").name == "dice-coin"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_model("telepathy")

    def test_angles_only_for_cosine_sign(self):
        model = get_model("cosine-sign", TSIRELSON_ANGLES)
        assert model.name == "cosine-sign"
        with pytest.raises(ValueError):
            get_model("dice-coin", TSIRELSON_ANGLES)
