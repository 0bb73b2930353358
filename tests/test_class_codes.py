"""Class codes: the tag -> behavior class route of an LHV model.

A model that declares its tag distribution compiles it once into class
weights (``LhvModel.class_distribution``), asking its scalar responses
about each distinct declared tag once. The per-trial routes, the tag path
of a model without a declared distribution and the trial log of any
model, ask ``core.behavior_codes`` about every drawn tag, through batch twins
where the model has them. No zoo model has batch twins, so these routes
run on the test-only models of ``batch_models``.

The differential tests compare three routes to a declared tag's class:
the scalar responses (``behavior_of``), batch twins and the compiled
class weights; and two trial logs of one model, on its scalar responses
and on batch twins. The error tests pin that a misbehaving model ends in
ModelError naming the model and the stage, and in exit code 3 from the
command line wherever `run` meets the fault. `run` draws no tags of a
model that declares its distribution (since stream scheme v3), so a
faulty ``sample_lambda`` of such a model leaves its report alone.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batch_models import WIDE_TAGS, lookup_twins, scalar_only, uniform_code_model, wide_table_model, without_distribution
from bellcheck import cli
from bellcheck.core import SETTING_PAIRS, LhvModel, behavior_codes, behavior_of
from bellcheck.engine import chsh_report, class_frequencies, count_experiment, run_experiment
from bellcheck.errors import ModelError
from bellcheck.streams import BLOCK_SIZE
from bellcheck.zoo import MODEL_FACTORIES, cosine_sign_model, dice_coin_model

_TWO_PI = 2 * math.pi


def declared_tags(model):
    return sorted({tag for pair in SETTING_PAIRS for tag, _ in model.enumerate_lambda(pair)})


def assert_codes_agree(model, twins):
    """``behavior_of``, the batch twins of ``twins`` and the compiled class
    distribution give every declared tag of ``model`` the same class."""
    tags = declared_tags(model)
    scalar = {tag: behavior_of(model, tag).code for tag in tags}
    assert behavior_codes(twins, np.asarray(tags)).tolist() == list(scalar.values())
    nums, d = model.class_distribution
    for pair in SETTING_PAIRS:
        weights = [0] * 16
        for tag, w in model.enumerate_lambda(pair):
            weights[scalar[tag]] += w
        assert [Fraction(num, d) for num in nums[pair]] == weights, pair


@pytest.mark.parametrize("name", sorted(MODEL_FACTORIES))
def test_zoo_codes_agree(name):
    model = MODEL_FACTORIES[name]()
    assert_codes_agree(model, lookup_twins(model))


def test_uniform_code_codes_agree():
    model = uniform_code_model()
    twins = without_distribution(model)
    assert behavior_codes(twins, np.arange(16)).tolist() == list(range(16))
    assert model.class_distribution == (dict.fromkeys(SETTING_PAIRS, (1,) * 16), 16)
    assert_codes_agree(model, twins)


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
def test_cosine_sign_codes_agree_for_any_angles(a1, a2, b1, b2):
    model = cosine_sign_model(a1, a2, b1, b2)
    assert_codes_agree(model, lookup_twins(model))


def test_grid_angles_hit_cos_near_zero():
    # the grid strategy above does produce arguments whose cosine is ~0
    model = cosine_sign_model(_grid_angle(5, 1), 0.0, 0.0, 0.0)
    arguments = [_grid_angle(5, 1) - _TWO_PI * t / 720 for t in range(720)]
    assert min(abs(math.cos(x)) for x in arguments) < 1e-15
    assert_codes_agree(model, lookup_twins(model))


def test_compiling_asks_each_response_once_per_distinct_declared_tag():
    calls = []

    def respond(i, lam):
        calls.append((i, lam))
        return 1

    # tag 0 is declared twice at every pair, 3 at pairs (1, k), 4 at (2, k)
    declare = lambda pair: [(0, Fraction(1, 4)), (pair[0] + 2, Fraction(1, 2)), (0, Fraction(1, 4))]
    model = _model(respond_alice=respond, enumerate_lambda=declare)
    assert model.class_distribution == (dict.fromkeys(SETTING_PAIRS, (0,) * 15 + (4,)), 4)
    assert sorted(calls) == [(i, t) for i in (1, 2) for t in (0, 3, 4)]


def test_run_of_a_declared_model_draws_no_tags_and_calls_no_twin(monkeypatch, capsys):
    def never(*args):
        raise AssertionError("called by a run of a declared model")

    model = _model(tags=[0, 1], sample=never, respond_alice_batch=never, respond_bob_batch=never)
    counts = count_experiment(model, BLOCK_SIZE + 1, seed=2)
    assert all(counts.classes[p][15] == BLOCK_SIZE + 1 for p in SETTING_PAIRS)
    monkeypatch.setitem(MODEL_FACTORIES, "probe", lambda: model)
    assert cli.main(["run", "--model", "probe", "--n", str(BLOCK_SIZE + 1)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_model_without_declared_distribution_takes_the_tag_path():
    model = without_distribution(_model(tags=[0]))
    assert model.class_distribution is None
    assert behavior_codes(model, np.zeros(3, dtype=np.int64)).tolist() == [15, 15, 15]


def test_class_distribution_is_compiled_once_per_model():
    calls = []

    def respond(i, lam):
        calls.append((i, lam))
        return 1

    model = _model(respond_alice=respond, tags=[0, 1])
    compiled = model.class_distribution
    assert model.class_distribution is compiled
    count_experiment(model, 10, seed=1)
    assert len(calls) == 4


def test_zoo_class_distributions():
    """dice-coin declares 6 tags in two classes per pair, cosine-sign 720
    directions in 8 classes per pair, and conspiracy one class per pair."""
    shapes = {"conspiracy": (4, 1, 1), "cosine-sign": (720, 720, 8), "dice-coin": (6, 6, 2)}
    for name, (tags, denominator, classes) in shapes.items():
        model = MODEL_FACTORIES[name]()
        nums, d = model.class_distribution
        assert (len(declared_tags(model)), d) == (tags, denominator), name
        assert all(np.count_nonzero(nums[pair]) == classes for pair in SETTING_PAIRS), name


def test_wide_table_model_compiles_each_of_its_tags():
    """Each of the 2^16 tags has weight 1/2^16 and the code of its low four
    bits xor its high four, so every class holds 2^12 of them."""
    assert wide_table_model().class_distribution == (dict.fromkeys(SETTING_PAIRS, (1 << 12,) * 16), WIDE_TAGS)


#: declared tags of every hashable kind, each of which compiles: floats,
#: strings, bools, negative and large integers, tuples, None and mixed types
DECLARED_DOMAINS = [
    [0.5],
    ["a", "b"],
    [True, False],
    [-1, 0],
    [0, WIDE_TAGS],
    [(0, 1), (1, 0)],
    [None, "x"],
    [Fraction(1, 3), 2.5, 0],
]


@pytest.mark.parametrize("tags", DECLARED_DOMAINS)
def test_any_hashable_declared_tags_compile(tags):
    respond = lambda i, lam: 1 if (len(repr(lam)) + i) % 2 else -1
    model = _model(tags=tags, respond_alice=respond, respond_bob=lambda i, lam: -respond(i, lam))
    nums, d = model.class_distribution
    expected = [0] * 16
    for tag in tags:
        expected[behavior_of(model, tag).code] += Fraction(1, len(tags))
    assert all([Fraction(num, d) for num in nums[pair]] == expected for pair in SETTING_PAIRS)


def test_tuple_tags_are_declared_not_drawn():
    """Declared tags may be any hashable, tuples too. A sampler answers k tags
    that ``np.asarray`` reads as one dimension, so k tuples of two, a (k, 2)
    array, are refused by their shape on the tag path and in the trial log."""
    tags = [(0, 1), (1, 0)]
    respond = lambda i, lam: 1 if lam[i - 1] else -1
    sample = lambda rng, n, pair: [tags[j % 2] for j in range(n)]
    declared = _model(name="bad-probe", tags=tags, respond_alice=respond, respond_bob=respond, sample=sample)
    # (0, 1) is (A1, A2, B1, B2) = (-1, +1, -1, +1), code 5; (1, 0) is code 10
    half = [0] * 16
    half[5] = half[10] = 1
    assert declared.class_distribution == (dict.fromkeys(SETTING_PAIRS, tuple(half)), 2)
    counts = count_experiment(declared, 50, seed=0)
    assert all(c[5] + c[10] == 50 for c in counts.classes.values())
    drawn = _model(name="bad-probe", tags=tags, respond_alice=respond, respond_bob=respond, sample=sample,
                   enumerate_lambda=None)
    for run, model in ((count_experiment, drawn), (run_experiment, declared), (run_experiment, drawn)):
        with pytest.raises(ModelError) as info:
            run(model, 50, seed=0)
        assert str(info.value) == _SHAPE.format((50, 2)), run.__name__


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


_SHAPE = "model 'bad-probe': sample_lambda returned tags of shape {}, not (50,)"
_RESPONSE = "model 'bad-probe': class analysis: respond_{} at setting {} "

#: (case id, model kwargs, the trial log's message)
LOG_FAULTS = [
    ("2-D tags", dict(sample=lambda rng, n, pair: np.zeros((n, 2), dtype=np.int64)), _SHAPE.format((50, 2))),
    ("scalar tag", dict(sample=lambda rng, n, pair: 0), _SHAPE.format(())),
    ("sampler raises", dict(sample=lambda rng, n, pair: _unknown_pair(pair)),
     "model 'bad-probe': sample_lambda failed: (1, 1)"),
    ("response raises at a drawn tag",
     dict(tags=[0, 1], respond_alice=_raise_at_tag_one, sample=lambda rng, n, pair: np.ones(n, dtype=np.int64)),
     _RESPONSE.format("alice", 1) + "failed: 'no such direction'"),
    ("response returns 0 at a drawn tag", dict(respond_bob=lambda i, lam: 0 if i == 2 else 1),
     _RESPONSE.format("bob", 2) + "returned a value other than -1/+1"),
    ("too few tags", dict(sample=lambda rng, n, pair: np.zeros(n - 1, dtype=np.int64)), _SHAPE.format((49,))),
    ("batch twin raises", dict(respond_alice_batch=lambda i, lams: _unknown_pair((i, len(lams)))),
     _RESPONSE.format("alice", 1) + "failed: (1, 50)"),
    ("batch twin returns 0", dict(respond_bob_batch=lambda i, lams: np.zeros(len(lams), dtype=np.int8)),
     _RESPONSE.format("bob", 1) + "returned a value other than -1/+1"),
    ("batch twin returns 2", dict(respond_alice_batch=lambda i, lams: np.full(len(lams), 2)),
     _RESPONSE.format("alice", 1) + "returned a value other than -1/+1"),
]


@pytest.mark.parametrize("kwargs,message", [c[1:] for c in LOG_FAULTS], ids=[c[0] for c in LOG_FAULTS])
def test_bad_model_in_a_trial_log_is_model_error(kwargs, message):
    """A fault the trial log meets is ModelError. The tag path of a model
    without a declared distribution draws its tags through the same blocks,
    so it meets a sampler's fault with the same message."""
    routes = [(run_experiment, _model(name="bad-probe", **kwargs))]
    if "sample_lambda" in message:
        routes.append((count_experiment, _model(name="bad-probe", enumerate_lambda=None, **kwargs)))
    for run, model in routes:
        with pytest.raises(ModelError) as info:
            run(model, 50, seed=0)
        assert str(info.value) == message, run.__name__


#: (case id, a batch twin's answer of another shape than n tags')
MISSHAPEN = [
    ("scalar", lambda n: 1),
    ("one outcome", lambda n: np.array([1])),
    ("n + 1 outcomes", lambda n: np.ones(n + 1, dtype=np.int8)),
]


@pytest.mark.parametrize("answer", [c[1] for c in MISSHAPEN], ids=[c[0] for c in MISSHAPEN])
def test_batch_answer_of_another_shape_is_model_error(answer):
    """A twin must answer in the tags' shape, since a broadcast answer would
    stand for every tag's: on the tag path and in the trial log, which both
    classify each block as they draw it, so they meet a fault at a setting
    that no series measures at that tag (Alice's setting 2 at tag 1)."""
    n = 1000
    shape = np.shape(answer(n))
    message = ("model '{}': class analysis: respond_{} at setting {} returned outcomes of shape {} "
               "for tags of shape (1000,)")
    bad_bob = _model(name="shape-probe", enumerate_lambda=None, respond_bob_batch=lambda i, lams: answer(len(lams)))
    late = dataclasses.replace(
        _pair_one_misbehaving(lambda lam: 1),
        respond_alice_batch=lambda i, lams: answer(len(lams)) if i == 2 and lams[0] == 1 else np.ones(len(lams)),
    )
    for run in (count_experiment, run_experiment):
        with pytest.raises(ModelError) as info:
            run(bad_bob, n, seed=0)
        assert str(info.value) == message.format("shape-probe", "bob", 1, shape)
        with pytest.raises(ModelError) as info:
            run(late, n, seed=0)
        assert str(info.value) == message.format("late-bad", "alice", 2, shape)


#: (case id, the answer a response gives for n tags: a scalar response's
#: at each tag, or an array, its batch twin's): answers that are not -1/+1
#: by ``behavior_of``'s rule
NOT_OUTCOMES = [
    ("scalar 1.7", lambda n: 1.7),
    ("scalar -0.5", lambda n: -0.5),
    ("scalar nan", lambda n: math.nan),
    ("scalar 1j", lambda n: 1j),
    ("scalar 1+0j", lambda n: 1 + 0j),
    ("scalar numpy complex 1", lambda n: np.complex128(1)),
    ("scalar tuple", lambda n: (1,)),
    ("twin 1j", lambda n: np.full(n, 1j)),
    ("twin 1+0j", lambda n: np.full(n, 1 + 0j)),
    ("twin object 1j", lambda n: np.array([1j] * n, dtype=object)),
]


@pytest.mark.parametrize("answer", [c[1] for c in NOT_OUTCOMES], ids=[c[0] for c in NOT_OUTCOMES])
def test_answer_that_is_not_an_outcome_is_model_error(answer):
    """A per-trial answer other than -1/+1 is refused, as ``behavior_of``
    refuses it, on the tag path and in the trial log, also at a setting
    that no series measures at that tag; a scalar answer is not truncated
    to an int, and a batch twin's complex answer of modulus 1 is no
    outcome."""
    n = 1000
    twin = isinstance(answer(n), np.ndarray)
    respond = (lambda i, lam: 1) if twin else (lambda i, lam: answer(1))
    batch = {"respond_bob_batch": lambda i, lams: answer(len(lams))} if twin else {}
    message = "model '{}': class analysis: respond_{} at setting {} returned a value other than -1/+1"
    bad_bob = _model(name="value-probe", enumerate_lambda=None, respond_bob=respond, **batch)
    late = _pair_one_misbehaving(lambda lam: answer(1) if lam == 1 else 1)
    if twin:
        late = dataclasses.replace(late, respond_alice_batch=lambda i, lams: (
            answer(len(lams)) if i == 2 and lams[0] == 1 else np.ones(len(lams))))
    for run in (count_experiment, run_experiment):
        with pytest.raises(ModelError) as info:
            run(bad_bob, n, seed=0)
        assert str(info.value) == message.format("value-probe", "bob", 1)
        with pytest.raises(ModelError) as info:
            run(late, n, seed=0)
        assert str(info.value) == message.format("late-bad", "alice", 2)


#: Scalar answers equal to -1/+1 by ``behavior_of``'s rule, in types other
#: than int: (+1, -1) in each
EQUAL_TO_OUTCOMES = [(1.0, -1.0), (True, -1), (np.float64(1.0), np.int8(-1)), (Fraction(1), Fraction(-1))]


@pytest.mark.parametrize("plus,minus", EQUAL_TO_OUTCOMES, ids=lambda v: type(v).__name__)
def test_scalar_answers_equal_to_outcomes_count_as_them(plus, minus):
    as_ints = scalar_only(MODEL_FACTORIES["dice-coin"]())
    convert = lambda respond: lambda i, lam: plus if respond(i, lam) == 1 else minus
    typed = dataclasses.replace(as_ints, respond_alice=convert(as_ints.respond_alice),
                                respond_bob=convert(as_ints.respond_bob))
    assert count_experiment(typed, 3000, seed=2).classes == count_experiment(as_ints, 3000, seed=2).classes
    log, reference = run_experiment(typed, 3000, seed=2), run_experiment(as_ints, 3000, seed=2)
    for pair in SETTING_PAIRS:
        assert np.array_equal(log.series[pair].alice, reference.series[pair].alice)
        assert np.array_equal(log.series[pair].bob, reference.series[pair].bob)
    assert (log.agree, log.classes) == (reference.agree, reference.classes)


def test_trial_log_answers_at_any_drawn_tag():
    """The log takes each click from the responses at the drawn tag, also
    at a tag the model does not declare."""
    model = _model(tags=[0, 1], respond_alice=lambda i, lam: -1 if lam == 5 else 1,
                   sample=lambda rng, n, pair: np.full(n, 5))
    log = run_experiment(model, 50, seed=0)
    assert all(np.all(s.alice == -1) and np.all(s.bob == 1) for s in log.series.values())


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


#: (case id, declared tags, sampler) of drawn tags that the declared
#: distribution does not hold or that no integer array could index: domain
#: edges, holes, the last trial of a series and non-integer dtypes
DRAWN_TAGS = [
    ("tag above the domain", [0, 1], lambda rng, n, pair: np.full(n, 5)),
    ("tag in a domain hole", [0, 2], lambda rng, n, pair: np.ones(n, dtype=np.int64)),
    ("negative tag", [0, 1], lambda rng, n, pair: np.full(n, -1)),
    ("float tags", [0, 1], lambda rng, n, pair: np.arange(n) / 2),
    ("tag one past the domain", [0, 2], _first_tags(0, 3)),
    ("tag above the domain before a hole", [0, 2], _first_tags(0, 7, 1)),
    ("hole before a tag above the domain", [0, 2], _first_tags(1, 0, 7)),
    ("hole at the last trial", [0, 2], _last_trial(1)),
    ("bool tags", [0, 1], lambda rng, n, pair: np.arange(n) % 3 == 0),
    ("float32 tags", [0, 1], lambda rng, n, pair: np.arange(n, dtype=np.float32)),
]


@pytest.mark.parametrize("tags,sample", [c[1:] for c in DRAWN_TAGS], ids=[c[0] for c in DRAWN_TAGS])
def test_trial_log_reads_the_responses_at_each_drawn_tag(tags, sample):
    """At a size whose last block holds one trial, every click of the log
    is the scalar response at its drawn tag, declared or not."""
    respond = lambda i, lam: 1 if (int(lam) + i) % 2 else -1
    model = _model(tags=tags, respond_alice=respond, respond_bob=lambda i, lam: respond(i + 1, lam), sample=sample)
    log = run_experiment(model, BLOCK_SIZE + 1, seed=0)
    for (i, k), s in log.series.items():
        assert s.lambdas.shape == (BLOCK_SIZE + 1,)
        codes = s.lambdas.astype(np.int64)
        assert np.array_equal(s.alice, np.where((codes + i) % 2, 1, -1))
        assert np.array_equal(s.bob, np.where((codes + k + 1) % 2, 1, -1))
    assert log.series[(1, 1)].lambdas.dtype == np.asarray(sample(None, 1, (1, 1))).dtype


_COMPILE = "model 'bad-probe': class distribution: responses at tag {} failed: {}"
_ENUMERATE = "model 'bad-probe': enumerate_lambda"

#: (case id, model kwargs, the message of `run` and ``count_experiment``;
#: None for the sampler's faults, which they never meet)
RUN_FAULTS = [
    ("tag outside the declared domain", dict(tags=[0, 1], sample=lambda rng, n, pair: np.full(n, 5)), None),
    ("float tags", dict(tags=[0, 1], sample=lambda rng, n, pair: np.zeros(n)), None),
    ("2-D tags", dict(tags=[0, 1], sample=lambda rng, n, pair: np.zeros((n, 2), dtype=np.int64)), None),
    ("scalar tag", dict(tags=[0, 1], sample=lambda rng, n, pair: 0), None),
    ("response raises", dict(tags=[0, 1], respond_alice=_raise_at_tag_one),
     _COMPILE.format(1, "'no such direction'")),
    ("response returns 0", dict(tags=[0, 1], respond_bob=lambda i, lam: 0 if i == 2 else 1),
     _COMPILE.format(0, "outcome must be -1 or +1, got 0")),
    ("enumerate_lambda raises", dict(enumerate_lambda=_unknown_pair),
     "model 'bad-probe': enumerate_lambda failed: (1, 1)"),
    ("negative declared weight", dict(enumerate_lambda=lambda pair: [(0, Fraction(3, 2)), (1, Fraction(-1, 2))]),
     "model 'bad-probe': enumerate_lambda: tag 1 of pair (1, 1) has weight -1/2 < 0"),
    ("weights that do not sum to 1", dict(enumerate_lambda=lambda pair: [(0, Fraction(1, 2)), (1, Fraction(1, 4))]),
     "model 'bad-probe': enumerate_lambda: declared tag weights of pair (1, 1) sum to 3/4, not 1"),
    ("no declared tags", dict(enumerate_lambda=lambda pair: []),
     _ENUMERATE + ": declared tag weights of pair (1, 1) sum to 0, not 1"),
    ("enumerate_lambda returns None", dict(enumerate_lambda=lambda pair: None),
     _ENUMERATE + " failed: 'NoneType' object is not iterable"),
    ("tag without a weight", dict(enumerate_lambda=lambda pair: [(0,)]),
     _ENUMERATE + " failed: not enough values to unpack (expected 2, got 1)"),
    ("weight that is no number", dict(enumerate_lambda=lambda pair: [(0, "one")]),
     _ENUMERATE + " failed: Invalid literal for Fraction: 'one'"),
    ("response returns None", dict(tags=[0, 1], respond_alice=lambda i, lam: None if lam == 1 else 1),
     _COMPILE.format(1, "outcome must be -1 or +1, got None")),
    ("response returns 2", dict(tags=[0, 1], respond_bob=lambda i, lam: 2),
     _COMPILE.format(0, "outcome must be -1 or +1, got 2")),
    ("response returns 1+0j", dict(tags=[0, 1], respond_alice=lambda i, lam: 1 + 0j),
     _COMPILE.format(0, "outcome must be -1 or +1, got (1+0j)")),
    ("response returns numpy complex -1", dict(tags=[0, 1], respond_bob=lambda i, lam: np.complex64(-1)),
     _COMPILE.format(0, f"outcome must be -1 or +1, got {np.complex64(-1)!r}")),
]


@pytest.mark.parametrize("kwargs,message", [c[1:] for c in RUN_FAULTS], ids=[c[0] for c in RUN_FAULTS])
def test_bad_model_exits_3(kwargs, message, monkeypatch, capsys):
    """`run` exits 3 on every fault it meets, with ``count_experiment``'s
    message naming the model and the stage, at a size whose last block
    holds one trial. It never calls ``sample_lambda`` of a model that
    declares its distribution, so the sampler's faults exit 0 with the
    declared distribution's report."""
    n = BLOCK_SIZE + 1
    monkeypatch.setitem(MODEL_FACTORIES, "bad-probe", lambda: _model(name="bad-probe", **kwargs))
    code = cli.main(["run", "--model", "bad-probe", "--n", str(n)])
    err = capsys.readouterr().err
    if message is None:
        counts = count_experiment(_model(name="bad-probe", **kwargs), n, seed=0)
        assert all(sum(counts.classes[p]) == counts.classes[p][15] == n for p in SETTING_PAIRS)
        assert (code, err) == (cli.EXIT_OK, "")
        return
    with pytest.raises(ModelError) as info:
        count_experiment(_model(name="bad-probe", **kwargs), n, seed=0)
    assert str(info.value) == message
    assert (code, err) == (cli.EXIT_MODEL, f"model error: {message}\n")


def test_unhashable_declared_tag_is_model_error(monkeypatch, capsys):
    """A declared tag that cannot key the compile's tag memo is the model's
    fault: ModelError from ``count_experiment`` and exit 3 from `run`."""
    unhashable = lambda: _model(name="bad-probe", enumerate_lambda=lambda pair: [([1, 2], Fraction(1))])
    with pytest.raises(ModelError, match=r"^model 'bad-probe': enumerate_lambda failed: .*unhashable type: 'list'"):
        count_experiment(unhashable(), 50, seed=0)
    monkeypatch.setitem(MODEL_FACTORIES, "bad-probe", unhashable)
    assert cli.main(["run", "--model", "bad-probe", "--n", "50"]) == cli.EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: model 'bad-probe': enumerate_lambda failed: ")
    assert "unhashable type: 'list'" in err and "Traceback" not in err


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
def test_unsigned_tags_count_as_int64(dtype):
    model = dice_coin_model()
    draw = model.sample_lambda
    cast = lambda dtype: dataclasses.replace(model, sample_lambda=lambda rng, n, pair: draw(rng, n, pair).astype(dtype))
    counts_of = lambda model: run_experiment(model, BLOCK_SIZE + 1, seed=3)
    expected = counts_of(cast(np.int64))
    counts = counts_of(cast(dtype))
    assert counts.agree == expected.agree
    assert all(np.array_equal(counts.classes[p], expected.classes[p]) for p in SETTING_PAIRS)


def test_empty_tag_array():
    assert behavior_codes(dice_coin_model(), np.zeros(0, dtype=np.int64)).size == 0


def _pair_one_misbehaving(respond):
    """A model with no declared domain whose tag is Alice's setting index,
    and whose Alice answers ``respond(tag)`` at setting 2. Its clicks ask
    setting 2 only about tags drawn for pairs (2, k), so only the class
    analysis meets ``respond`` at tag 1."""
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
    # a trial log classifies each block as it draws it, so it meets the fault
    for run in (count_experiment, run_experiment):
        with pytest.raises(ModelError) as info:
            run(_pair_one_misbehaving(respond), 50, seed=0)
        assert "'late-bad'" in str(info.value)
        assert "class analysis" in str(info.value)


@pytest.mark.parametrize("respond", [c[1] for c in LATE_MISBEHAVIOUR], ids=[c[0] for c in LATE_MISBEHAVIOUR])
def test_response_failing_only_in_class_analysis_exits_3(respond, monkeypatch, capsys):
    monkeypatch.setitem(MODEL_FACTORIES, "late-bad", lambda: _pair_one_misbehaving(respond))
    assert cli.main(["run", "--model", "late-bad", "--n", "50"]) == cli.EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and "'late-bad'" in err and "class analysis" in err


def test_a_log_asks_each_response_once_per_trial():
    """A log classifies each drawn tag through its four responses, once,
    and reads its clicks off that class at the series' own settings; the
    tag here names the series' pair."""
    calls = []

    def recorder(party):
        def respond(i, lam):
            calls.append((party, i, int(lam)))
            return 1 if (i + int(lam)) % 3 else -1

        return respond

    model = LhvModel("probe", recorder("alice"), recorder("bob"),
                     lambda rng, n, pair: np.full(n, 10 * pair[0] + pair[1]), True)
    log = run_experiment(model, 5, seed=1)
    expected = [(p, s, 10 * i + k) for i, k in SETTING_PAIRS for p in ("alice", "bob") for s in (1, 2)]
    assert sorted(calls) == sorted(expected * 5)
    freqs = class_frequencies(log, model)
    for i, k in SETTING_PAIRS:
        beh = behavior_of(model, 10 * i + k)
        assert freqs.per_pair[(i, k)] == {beh: 1.0}
        s = log.series[i, k]
        assert s.alice.tolist() == [beh.alice(i)] * 5 and s.bob.tolist() == [beh.bob(k)] * 5


#: (case id, model factory, the model on scalar responses, the model on
#: batch twins). A zoo model has no twins of its own, so its twins look up
#: its declared tags; the uniform-code model has its own.
LOG_ROUTES = [
    (name, factory, lambda model: model, lookup_twins) for name, factory in sorted(MODEL_FACTORIES.items())
] + [("uniform-code", uniform_code_model, scalar_only, without_distribution)]


@pytest.mark.parametrize("factory,scalar,twins", [c[1:] for c in LOG_ROUTES], ids=[c[0] for c in LOG_ROUTES])
@pytest.mark.parametrize("n", [1, 3000])
def test_logs_on_scalar_responses_and_on_twins_agree(factory, scalar, twins, n):
    """The same (n, seed) gives the same report and class frequencies
    whether a log's clicks and classes come from the scalar responses or
    from batch twins, down to series of one trial."""
    on_scalar, on_twins = scalar(factory()), twins(factory())
    assert on_scalar.respond_alice_batch is None and on_twins.respond_alice_batch is not None
    a, b = run_experiment(on_scalar, n, seed=11), run_experiment(on_twins, n, seed=11)
    assert chsh_report(a) == chsh_report(b)
    assert class_frequencies(a, on_scalar) == class_frequencies(b, on_twins)
