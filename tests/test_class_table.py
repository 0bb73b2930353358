"""Class tables: the compiled tag -> behavior code form of a finite LHV model.

The differential tests compare three routes to a tag's behavior class:
the class table, the scalar responses (``behavior_of``) and the per-trial
batch route of models without a table (batch twins where the model has
them), per tag and over whole runs. No zoo model has batch twins, so the
batch route runs on the test-only models of ``batch_models``. The error
tests pin that a misbehaving model ends in ModelError naming the stage,
and in exit code 3 from the command line, and that the count path's tag
histograms reject a bad tag with the per-trial lookup's exact message.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_models import lookup_twins, scalar_only, uniform_code_model, wide_table_model, without_table
from bellcheck import cli
from bellcheck.core import (
    MAX_TABLE_TAGS,
    SETTING_PAIRS,
    UNDECLARED,
    LhvModel,
    behavior_codes,
    behavior_of,
    class_table,
)
from bellcheck.engine import chsh_report, class_frequencies, count_experiment, run_experiment
from bellcheck.errors import ModelError
from bellcheck.streams import BLOCK_SIZE
from bellcheck.zoo import MODEL_FACTORIES, conspiracy_model, cosine_sign_model, dice_coin_model

_TWO_PI = 2 * math.pi


def declared_tags(model):
    return sorted({tag for pair in SETTING_PAIRS for tag, _ in model.enumerate_lambda(pair)})


def assert_routes_agree(model):
    """The class table, ``behavior_of`` and the batch route of the model
    without its table give every declared tag the same code."""
    table = class_table(model)
    tags = declared_tags(model)
    scalar = [behavior_of(model, t).code for t in tags]
    assert table[tags].tolist() == scalar
    assert behavior_codes(without_table(model), np.asarray(tags)).tolist() == scalar
    undeclared = np.setdiff1d(np.arange(len(table)), tags)
    assert np.all(table[undeclared] == UNDECLARED)


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_zoo_table_matches_scalar_and_batch_routes(name):
    assert_routes_agree(MODEL_FACTORIES[name]())


def test_uniform_code_table_matches_scalar_and_batch_routes():
    model = uniform_code_model()
    assert class_table(model).tolist() == list(range(16))
    assert_routes_agree(model)


def test_zoo_table_sizes():
    assert len(class_table(dice_coin_model())) == 7
    assert len(class_table(cosine_sign_model())) == 720
    # conspiracy declares one code per pair; the others stay undeclared
    table = class_table(conspiracy_model())
    assert np.count_nonzero(table != UNDECLARED) == 4


def _grid_angle(t, quarter):
    # the direction of grid tag t shifted by a quarter turn, so that
    # cos(angle - direction) lands near 0 at some tag
    return _TWO_PI * t / 720 + quarter * math.pi / 2


angle = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    st.builds(_grid_angle, st.integers(-1440, 1440), st.sampled_from([-1, 0, 1, 2])),
)


@settings(max_examples=60, deadline=None)
@given(angle, angle, angle, angle)
def test_cosine_sign_routes_agree_for_any_angles(a1, a2, b1, b2):
    assert_routes_agree(cosine_sign_model(a1, a2, b1, b2))


def test_grid_angles_hit_cos_near_zero():
    # the grid strategy above does produce arguments whose cosine is ~0
    model = cosine_sign_model(_grid_angle(5, 1), 0.0, 0.0, 0.0)
    arguments = [_grid_angle(5, 1) - _TWO_PI * t / 720 for t in range(720)]
    assert min(abs(math.cos(x)) for x in arguments) < 1e-15
    assert_routes_agree(model)


def test_table_is_kept_on_the_model_and_read_only():
    model = cosine_sign_model()
    table = model.class_table
    assert model.class_table is table
    assert np.array_equal(class_table(model), table)
    with pytest.raises(ValueError):
        table[0] = 0


def test_scalar_responses_run_once_per_declared_tag():
    calls = []

    def respond(i, lam):
        calls.append((i, lam))
        return 1

    model = _model(respond_alice=respond, tags=[0, 3, 4])
    class_frequencies(run_experiment(model, 10, seed=1), model)
    assert sorted(calls) == [(i, t) for i in (1, 2) for t in (0, 3, 4)]


def test_table_path_ignores_batch_twins():
    def twin(i, lams):
        raise AssertionError("batch twin called on the table path")

    model = _model(tags=[0, 1], respond_alice_batch=twin, respond_bob_batch=twin)
    log = run_experiment(model, 100, seed=2)
    assert np.all(log.series[(1, 1)].alice == 1)
    freqs = class_frequencies(log, model)
    assert all(len(f) == 1 for f in freqs.per_pair.values())


@pytest.mark.parametrize(
    "tags",
    [
        [0.5],
        ["a", "b"],
        [True, False],
        [-1, 0],
        [0, MAX_TABLE_TAGS],
        [],
    ],
)
def test_models_without_a_small_integer_domain_get_no_table(tags):
    assert class_table(_model(tags=tags)) is None


def test_model_without_declared_domain_gets_no_table():
    model = _model(tags=[0])
    model = LhvModel(model.name, model.respond_alice, model.respond_bob, model.sample_lambda, True)
    assert class_table(model) is None
    assert behavior_codes(model, np.zeros(3, dtype=np.int64)).tolist() == [15, 15, 15]


def _model(
    *,
    tags=(0,),
    respond_alice=lambda i, lam: 1,
    respond_bob=lambda i, lam: 1,
    sample=None,
    name="probe",
    **extra,
):
    tags = list(tags)
    if sample is None:
        sample = lambda rng, n, pair: np.zeros(n, dtype=np.int64)
    extra.setdefault("enumerate_lambda", lambda pair: [(t, Fraction(1, len(tags))) for t in tags])
    return LhvModel(
        name=name,
        respond_alice=respond_alice,
        respond_bob=respond_bob,
        sample_lambda=sample,
        declares_mi=True,
        **extra,
    )


def _raise_at_tag_one(i, lam):
    if lam == 1:
        raise KeyError("no such direction")
    return 1


def _unknown_pair(pair):
    raise KeyError(pair)


#: (case id, model kwargs, the stage the message must name)
BAD_MODELS = [
    ("tag above the domain", dict(tags=[0, 1], sample=lambda rng, n, pair: np.full(n, 5)), "sample_lambda"),
    ("tag in a domain hole", dict(tags=[0, 2], sample=lambda rng, n, pair: np.ones(n, dtype=np.int64)), "sample_lambda"),
    ("negative tag", dict(tags=[0, 1], sample=lambda rng, n, pair: np.full(n, -1)), "sample_lambda"),
    ("float tags", dict(tags=[0, 1], sample=lambda rng, n, pair: np.zeros(n)), "sample_lambda"),
    ("2-D tags", dict(tags=[0, 1], sample=lambda rng, n, pair: np.zeros((n, 2), dtype=np.int64)), "sample_lambda"),
    ("scalar tag", dict(tags=[0, 1], sample=lambda rng, n, pair: 0), "sample_lambda"),
    ("response raises", dict(tags=[0, 1], respond_alice=_raise_at_tag_one), "class table"),
    ("response returns 0", dict(tags=[0, 1], respond_bob=lambda i, lam: 0 if i == 2 else 1), "class table"),
    ("enumerate_lambda raises", dict(enumerate_lambda=_unknown_pair), "enumerate_lambda"),
]


@pytest.mark.parametrize("kwargs,stage", [c[1:] for c in BAD_MODELS], ids=[c[0] for c in BAD_MODELS])
def test_bad_model_on_table_path_is_model_error(kwargs, stage):
    model = _model(name="bad-probe", **kwargs)
    with pytest.raises(ModelError) as info:
        run_experiment(model, 50, seed=0)
    assert "'bad-probe'" in str(info.value)
    assert stage in str(info.value)


@pytest.mark.parametrize("kwargs,stage", [c[1:] for c in BAD_MODELS], ids=[c[0] for c in BAD_MODELS])
def test_bad_model_on_table_path_exits_3(kwargs, stage, monkeypatch, capsys):
    monkeypatch.setitem(MODEL_FACTORIES, "bad-probe", lambda: _model(name="bad-probe", **kwargs))
    assert cli.main(["run", "--model", "bad-probe", "--n", "50"]) == cli.EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and "'bad-probe'" in err and stage in err
    assert "Traceback" not in err


def _first_tags(*values):
    """A sampler whose every block starts with ``values`` and goes on with 0."""

    def sample(rng, n, pair):
        tags = np.zeros(n, dtype=np.int64)
        tags[: len(values)] = values[:n]
        return tags

    return sample


def _last_trial(value):
    """A sampler whose one-trial blocks draw ``value``: the last trial of a
    series of BLOCK_SIZE + 1."""
    return lambda rng, n, pair: np.full(n, value if n == 1 else 0, dtype=np.int64)


#: (case id, model kwargs) of bad tags aimed at the count path's checks
#: before and after its tag histogram
BAD_TAGS = [
    ("tag one past the domain", dict(tags=[0, 2], sample=_first_tags(0, 3))),
    ("tag above the domain before a hole", dict(tags=[0, 2], sample=_first_tags(0, 7, 1))),
    ("hole before a tag above the domain", dict(tags=[0, 2], sample=_first_tags(1, 0, 7))),
    ("hole at the last trial", dict(tags=[0, 2], sample=_last_trial(1))),
    ("bool tags", dict(tags=[0, 1], sample=lambda rng, n, pair: np.zeros(n, dtype=bool))),
    ("float32 tags", dict(tags=[0, 1], sample=lambda rng, n, pair: np.zeros(n, dtype=np.float32))),
]

_OUTSIDE = "model 'bad-probe': sample_lambda: tag {} is outside the declared domain"
_NOT_INTEGER = "model 'bad-probe': sample_lambda: tags of dtype {} are outside the declared integer domain"
_SHAPE = "model 'bad-probe': sample_lambda returned tags of shape {}, not " + str((BLOCK_SIZE,))

#: the message of each case, as ``table_codes`` words it for the sampled tags
MESSAGES = {
    "tag above the domain": _OUTSIDE.format(5),
    "tag in a domain hole": _OUTSIDE.format(1),
    "negative tag": _OUTSIDE.format(-1),
    "float tags": _NOT_INTEGER.format("float64"),
    "2-D tags": _SHAPE.format((BLOCK_SIZE, 2)),
    "scalar tag": _SHAPE.format(()),
    "response raises": "model 'bad-probe': class table: responses at tag 1 failed: 'no such direction'",
    "response returns 0": "model 'bad-probe': class table: responses at tag 0 failed: outcome must be -1 or +1, got 0",
    "enumerate_lambda raises": "model 'bad-probe': enumerate_lambda failed: (1, 1)",
    "tag one past the domain": _OUTSIDE.format(3),
    "tag above the domain before a hole": _OUTSIDE.format(7),
    "hole before a tag above the domain": _OUTSIDE.format(7),
    "hole at the last trial": _OUTSIDE.format(1),
    "bool tags": _NOT_INTEGER.format("bool"),
    "float32 tags": _NOT_INTEGER.format("float32"),
}

COUNT_PATH_CASES = [c[:2] for c in BAD_MODELS] + BAD_TAGS


@pytest.mark.parametrize(
    "kwargs,message", [(c[1], MESSAGES[c[0]]) for c in COUNT_PATH_CASES], ids=[c[0] for c in COUNT_PATH_CASES]
)
def test_count_path_gives_the_table_codes_message(kwargs, message, monkeypatch, capsys):
    """``count_experiment`` and ``run`` (exit 3) word every bad tag as the
    per-trial lookup does, at a size whose last block holds one trial."""
    n = BLOCK_SIZE + 1
    with pytest.raises(ModelError) as info:
        count_experiment(_model(name="bad-probe", **kwargs), n, seed=0)
    assert str(info.value) == message
    monkeypatch.setitem(MODEL_FACTORIES, "bad-probe", lambda: _model(name="bad-probe", **kwargs))
    assert cli.main(["run", "--model", "bad-probe", "--n", str(n)]) == cli.EXIT_MODEL
    assert capsys.readouterr().err == f"model error: {message}\n"


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
def test_unsigned_tags_count_as_int64(dtype):
    model = dice_coin_model()
    draw = model.sample_lambda
    cast = lambda dtype: dataclasses.replace(model, sample_lambda=lambda rng, n, pair: draw(rng, n, pair).astype(dtype))
    expected = count_experiment(cast(np.int64), BLOCK_SIZE + 1, seed=3)
    counts = count_experiment(cast(dtype), BLOCK_SIZE + 1, seed=3)
    assert counts.agree == expected.agree
    assert all(np.array_equal(counts.classes[p], expected.classes[p]) for p in SETTING_PAIRS)


def test_wide_table_model_has_the_largest_table():
    assert len(class_table(wide_table_model())) == MAX_TABLE_TAGS


def test_undeclared_tag_in_a_log_is_model_error():
    model = dice_coin_model()
    with pytest.raises(ModelError, match="tag 7 is outside the declared domain"):
        behavior_codes(model, np.array([1, 7, 2]))


def test_empty_tag_array():
    assert behavior_codes(dice_coin_model(), np.zeros(0, dtype=np.int64)).size == 0


def _pair_one_misbehaving(respond):
    """A model with no declared domain whose tag is Alice's setting index,
    and whose Alice answers ``respond(tag)`` at setting 2. Trial generation
    asks setting 2 only about tags drawn for pairs (2, k), so only the
    class analysis meets ``respond`` at tag 1."""
    return LhvModel(
        name="late-bad",
        respond_alice=lambda i, lam: respond(lam) if i == 2 else 1,
        respond_bob=lambda i, lam: 1,
        sample_lambda=lambda rng, n, pair: np.full(n, pair[0], dtype=np.int64),
        declares_mi=True,
    )


#: (case id, Alice's response at setting 2 as a function of the tag)
LATE_MISBEHAVIOUR = [
    ("returns 0", lambda lam: 0 if lam == 1 else 1),
    ("raises ZeroDivisionError", lambda lam: 1 // (int(lam) - 1)),
]


@pytest.mark.parametrize("respond", [c[1] for c in LATE_MISBEHAVIOUR], ids=[c[0] for c in LATE_MISBEHAVIOUR])
def test_response_failing_only_in_class_analysis_is_model_error(respond):
    model = _pair_one_misbehaving(respond)
    log = run_experiment(model, 50, seed=0)
    with pytest.raises(ModelError) as info:
        class_frequencies(log, model)
    assert "'late-bad'" in str(info.value)
    assert "class analysis" in str(info.value)


@pytest.mark.parametrize("respond", [c[1] for c in LATE_MISBEHAVIOUR], ids=[c[0] for c in LATE_MISBEHAVIOUR])
def test_response_failing_only_in_class_analysis_exits_3(respond, monkeypatch, capsys):
    monkeypatch.setitem(MODEL_FACTORIES, "late-bad", lambda: _pair_one_misbehaving(respond))
    assert cli.main(["run", "--model", "late-bad", "--n", "50"]) == cli.EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and "'late-bad'" in err and "class analysis" in err


def test_class_analysis_of_a_log_asks_only_the_unmeasured_settings():
    """Without a table, a log's clicks stand for the responses at each
    series' own settings; the tag here names the series' pair."""
    calls = []

    def recorder(party):
        def respond(i, lam):
            calls.append((party, i, int(lam)))
            return 1 if (i + int(lam)) % 3 else -1

        return respond

    model = LhvModel("probe", recorder("alice"), recorder("bob"),
                     lambda rng, n, pair: np.full(n, 10 * pair[0] + pair[1]), True)
    log = run_experiment(model, 5, seed=1)
    calls.clear()
    freqs = class_frequencies(log, model)
    expected = [(p, 3 - s, 10 * i + k) for i, k in SETTING_PAIRS for p, s in (("alice", i), ("bob", k))]
    assert sorted(calls) == sorted(expected * 5)
    assert all(freqs.per_pair[(i, k)] == {behavior_of(model, 10 * i + k): 1.0} for i, k in SETTING_PAIRS)


#: (case id, model factory, the route without a table, n). Zoo models take
#: the batch route on lookup twins; the uniform-code model on its own twins.
TABLELESS_ROUTES = [
    case
    for name, factory in sorted(MODEL_FACTORIES.items())
    for case in (
        (f"{name}-batch twins", factory, lookup_twins, 20_000),
        (f"{name}-scalar responses", factory, without_table, 300),
    )
] + [
    ("uniform-code-batch twins", uniform_code_model, without_table, 20_000),
    ("uniform-code-scalar responses", uniform_code_model, scalar_only, 300),
]


@pytest.mark.parametrize("factory,strip,n", [c[1:] for c in TABLELESS_ROUTES], ids=[c[0] for c in TABLELESS_ROUTES])
def test_runs_without_a_table_match_the_table_path(factory, strip, n):
    """The same (n, seed) gives the same report table and class
    frequencies whether the clicks and classes come from the class table,
    the batch twins or the scalar responses."""
    model = factory()
    stripped = strip(model)
    assert model.class_table is not None and stripped.class_table is None
    with_table = run_experiment(model, n, seed=11)
    without = run_experiment(stripped, n, seed=11)
    assert chsh_report(without) == chsh_report(with_table)
    assert class_frequencies(without, stripped) == class_frequencies(with_table, model)
