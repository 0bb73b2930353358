"""`run`'s report stage against the frozen route of ``report_reference``.

The report stage writes its fixed JSON layout in one pass from plain-int
class frequencies; the reference keys them by ``Behavior`` and renders
with ``json.dumps``. Both must give the same JSON and CSV bytes, and with
``--out`` the same file and summary line, for every zoo model, 200 seeds
and n in {1, 5, 1000, 2^10, 2^20}; and on 20 of those seeds for the runs
that take angles: ``quantum`` and cosine-sign, at Tsirelson's angles and at
the goldens' 0.3,1.9,-0.8,2.6. These runs pin the MI diagnostic's
tie-break, which decides the reported class wherever two classes tie at
the maximum deviation: dice-coin ties on every seed at a power-of-two n
(its two classes' frequencies are then exact and sum to 1), and
cosine-sign on 3 of 200 seeds at n = 1000.
"""

import contextlib
import io
import json

import pytest

import report_reference as ref
from bellcheck import cli
from bellcheck.core import Behavior
from bellcheck.engine import count_experiment
from bellcheck.quantum import TSIRELSON_ANGLES, AnglePair, count_quantum_experiment
from bellcheck.zoo import get_model

MODELS = ("dice-coin", "cosine-sign", "conspiracy")
SIZES = (1, 5, 1000, 1 << 10, 1 << 20)
SEEDS = range(200)
ANGLES = {"tsirelson": TSIRELSON_ANGLES, "golden": AnglePair(0.3, 1.9, -0.8, 2.6)}


def _run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _check(argv, expected, tmp_path):
    """`argv`'s JSON and CSV reports, on stdout and through --out, against
    the frozen route's report dict."""
    out = tmp_path / "report"
    for fmt, text in (("json", ref.render_json(expected)), ("csv", ref.render_csv(expected))):
        assert _run([*argv, "--format", fmt]) == text
        assert _run([*argv, "--format", fmt, "--out", str(out)]) == ref.summary_line(expected, out)
        assert out.read_text() == text


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", MODELS)
def test_report_bytes_match_the_frozen_route(name, n, tmp_path):
    model = get_model(name)
    for seed in SEEDS:
        expected = ref.report_dict(name, None, count_experiment(model, n, seed), model)
        _check(["run", "--model", name, "--n", str(n), "--seed", str(seed)], expected, tmp_path)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("angles", ANGLES)
@pytest.mark.parametrize("name", ["quantum", "cosine-sign"])
def test_angled_report_bytes_match_the_frozen_route(name, angles, n, tmp_path):
    pair = ANGLES[angles]
    model = None if name == "quantum" else get_model(name, pair)
    flag = "--angles=" + ",".join(map(repr, pair.as_tuple()))
    for seed in SEEDS[::10]:
        counts = (count_quantum_experiment(pair, n, seed) if model is None
                  else count_experiment(model, n, seed))
        expected = ref.report_dict(name, pair.as_tuple(), counts, model)
        argv = ["run", "--model", name, "--n", str(n), "--seed", str(seed)]
        _check([*argv, flag], expected, tmp_path)
        if name == "quantum" and angles == "tsirelson":
            _check(argv, expected, tmp_path)


def _ties(name, n):
    model = get_model(name)
    return {seed: ref.mi_ties(ref.class_frequencies(count_experiment(model, n, seed))) for seed in SEEDS}


@pytest.mark.parametrize("n", [1 << 10, 1 << 20])
def test_dice_coin_ties_on_every_seed_at_a_power_of_two(n):
    # set order lists +++- first; the first maximum in code order would be
    # +-++ (code 11 before 14), so a rewrite in code order changes 200 reports
    for seed, ties in _ties("dice-coin", n).items():
        assert ties == ["+++-", "+-++"], seed
        assert min(ties, key=lambda c: Behavior.from_compact(c).code) == "+-++"
        report = json.loads(_run(["run", "--model", "dice-coin", "--n", str(n), "--seed", str(seed)]))
        assert report["mi"]["worst_class"] == "+++-", seed


def test_cosine_sign_ties_on_three_seeds_at_n_1000():
    tied = [seed for seed, ties in _ties("cosine-sign", 1000).items() if len(ties) > 1]
    assert len(tied) == 3, tied
