import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from batch_models import lookup_twins
from bellcheck import cli, core
from bellcheck.core import behavior_of
from bellcheck.engine import (
    chsh_report,
    chsh_statistic,
    exact_class_weights,
    exact_correlation_table,
    exact_mi_holds,
    run_experiment,
    theoretical_chsh,
)
from bellcheck.quantum import TSIRELSON_ANGLES, AnglePair
from bellcheck.zoo import (
    MODEL_FACTORIES,
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
        log = run_experiment(lookup_twins(conspiracy_model()), 20_000, seed=13)
        rep = chsh_report(log)
        assert rep.table.as_tuple() == (1.0, -1.0, 1.0, 1.0)
        assert rep.s_star == 4.0
        assert not rep.bound_satisfied

    def test_exact_series_s(self):
        assert chsh_statistic(exact_correlation_table(conspiracy_model())) == 4

    def test_mi_fails(self):
        assert exact_mi_holds(conspiracy_model()) is False


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
            assert exact_mi_holds(model) is model.declares_mi

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


class TestModelCache:
    """``get_model`` keeps one compiled model per (factory, angles)."""

    def test_repeated_cli_calls_compile_once(self, monkeypatch):
        """Two `run`s and a `bound` in one process evaluate cosine-sign's
        responses at its 720 tags once in total."""
        # a factory of its own, so that no earlier test has compiled it
        monkeypatch.setitem(MODEL_FACTORIES, "cosine-sign", lambda *angles: cosine_sign_model(*angles))
        tags = []
        code_of = core._code_of
        monkeypatch.setattr(core, "_code_of", lambda model, lam, *rest: tags.append(lam) or code_of(model, lam, *rest))
        for seed in (1, 2):
            assert cli.main(["run", "--model", "cosine-sign", "--n", "1000", "--seed", str(seed)]) == cli.EXIT_OK
            assert sorted(tags) == list(range(720))
        assert cli.main(["bound", "--model", "cosine-sign"]) == cli.EXIT_OK
        assert len(tags) == 720

    def test_equal_keys_share_one_model(self):
        assert get_model("dice-coin") is get_model("dice-coin")
        tsirelson = get_model("cosine-sign", TSIRELSON_ANGLES)
        assert get_model("cosine-sign", AnglePair(*TSIRELSON_ANGLES.as_tuple())) is tsirelson
        other = get_model("cosine-sign", AnglePair(0.3, 1.9, -0.8, 2.6))
        assert other is not tsirelson
        assert other.class_distribution != tsirelson.class_distribution

    def test_swapped_factory_takes_effect_on_the_next_call(self, monkeypatch):
        cached = get_model("dice-coin")
        probe = dataclasses.replace(dice_coin_model(), description="probe")
        monkeypatch.setitem(MODEL_FACTORIES, "dice-coin", lambda: probe)
        assert get_model("dice-coin") is probe
        monkeypatch.undo()
        assert get_model("dice-coin") is cached

    @pytest.mark.parametrize(
        "signs", itertools.product((1.0, -1.0), repeat=4), ids=lambda signs: "".join("+-"[s < 0] for s in signs)
    )
    def test_signed_zero_angles_share_one_model(self, signs, monkeypatch, capsys):
        """-0.0 and 0.0 are one cache key; the shared model reports as a
        fresh one built with the exact angles given."""
        angles = AnglePair(*(s * 0.0 for s in signs))
        assert get_model("cosine-sign", angles) is get_model("cosine-sign", AnglePair(0.0, 0.0, 0.0, 0.0))
        argv = ["run", "--model", "cosine-sign", "--n", "2000", "--angles=" + ",".join(map(repr, angles.as_tuple()))]
        assert cli.main(argv) == cli.EXIT_OK
        cached = capsys.readouterr().out
        monkeypatch.setattr(cli, "get_model", lambda name, angles: cosine_sign_model(*angles.as_tuple()))
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == cached

    @pytest.mark.parametrize("order", [("float32", "float"), ("float", "float32")], ids="-then-".join)
    def test_angles_of_another_type_get_their_own_model(self, order, monkeypatch):
        """np.float32(0.0) == 0.0 and both hash alike, but at t = 180
        np.float32(0.0) - pi/2 rounds past -pi/2, so the two compile to
        different class distributions: each call order gets the right one."""
        monkeypatch.setitem(MODEL_FACTORIES, "cosine-sign", lambda *angles: cosine_sign_model(*angles))
        rest = TSIRELSON_ANGLES.as_tuple()[1:]
        angles = {"float32": AnglePair(np.float32(0.0), *rest), "float": AnglePair(0.0, *rest)}
        fresh = {kind: cosine_sign_model(*a.as_tuple()).class_distribution for kind, a in angles.items()}
        assert fresh["float32"] != fresh["float"]
        for kind in order:
            assert get_model("cosine-sign", angles[kind]).class_distribution == fresh[kind], kind

    def test_replace_of_a_cached_model_compiles_afresh(self):
        model = get_model("cosine-sign")
        assert model.class_distribution is not None
        copy = dataclasses.replace(model, description="copy")
        assert "class_distribution" not in vars(copy)
        assert copy.class_distribution == model.class_distribution
