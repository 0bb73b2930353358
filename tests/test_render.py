"""Every JSON output is exactly what ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` writes.

`bound` and `ghz-check` call json.dumps themselves. `run` and `fine-check`
write their fixed layouts in one pass (``cli._run_json``,
``cli._fine_json``), so each of their outputs must equal json.dumps of its
own parse: on every JSON golden command, on `run` models, sizes, seeds and
angles drawn by hypothesis, and on exact `fine-check` statistics drawn by
hypothesis, feasible and facet-violating, with and without marginals, with
common denominators of up to about 2,000 digits. On those statistics,
stdout and the ``--out`` file must also equal the frozen route of
``report_reference.fine_check_dict``: the dict `fine-check` built before,
rendered through json.dumps. The equalities hold per Python version, since
json's encoder differs between them; CI runs this file on each version of
its matrix.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import report_reference as ref
from bellcheck import cli
from bellcheck.core import CorrelationTable
from bellcheck.jointprob import BehaviorStatistics, jp_feasible

DATA = Path(__file__).parent / "data"
GOLDEN_ARGVS = [c["argv"] for c in json.loads((DATA / "run_golden.json").read_text())] + [
    c["argv"] for c in json.loads((DATA / "fine_check_golden.json").read_text())
]
ARGVS = [argv for argv in GOLDEN_ARGVS if argv[0] != "run"]
RUN_ARGVS = [argv for argv in GOLDEN_ARGVS if argv[0] == "run" and "csv" not in argv]


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _main(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _check_own_parse(argv):
    out = _main(argv)
    assert out == _json_dumps(json.loads(out))


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) for argv in ARGVS])
def test_writer_matches_json_dumps_on_every_golden_command(argv):
    if argv[0] == "zoo":  # the model list, not JSON
        with pytest.raises(json.JSONDecodeError):
            json.loads(_main(argv))
    else:
        _check_own_parse(argv)


@pytest.mark.parametrize("argv", RUN_ARGVS, ids=[" ".join(argv) for argv in RUN_ARGVS])
def test_run_writes_what_json_dumps_writes_on_every_golden_command(argv):
    _check_own_parse(argv)


ANGLE_VALUES = st.floats(-1e300, 1e300) | st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300])


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(["dice-coin", "cosine-sign", "conspiracy", "quantum"]),
       n=st.integers(1, 1 << 20) | st.sampled_from([1, 2, 5, 1 << 10, 1 << 20]),
       seed=st.integers(0, 2**64 - 1),
       angles=st.none() | st.lists(ANGLE_VALUES, min_size=4, max_size=4))
def test_run_writes_what_json_dumps_writes_on_drawn_runs(model, n, seed, angles):
    argv = ["run", "--model", model, "--n", str(n), "--seed", str(seed)]
    if angles is not None and model in ("cosine-sign", "quantum"):
        argv.append("--angles=" + ",".join(map(repr, angles)))
    _check_own_parse(argv)


@st.composite
def fine_check_statistics(draw):
    """(correlations, marginals or None), over one or two denominators of
    1, 6 or 999 digits. A value's numerator and denominator each fit in 999
    digits, so it stays within fine-check's 2,000 characters, and two
    999-digit denominators give a common denominator of about 1,998 digits,
    near the 2,100-digit bound. Marginals within 1/8 and correlations within
    3/4 always give valid pair tables; without marginals, any correlations
    in [-1, 1] do. Two in three values sit at an end of their range, which
    reaches the facets."""
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    dens = [rng.randrange(10 ** (k - 1), 10**k) for k in draw(st.lists(st.sampled_from((999, 6, 1)), min_size=1, max_size=2))]

    def values(limit):
        bounds = [(d * limit.numerator // limit.denominator, d) for d in (rng.choice(dens) for _ in range(4))]
        return [Fraction(rng.choice((-b, b, rng.randint(-b, b))), d) for b, d in bounds]

    if draw(st.booleans()):
        return values(Fraction(1)), None
    return values(Fraction(3, 4)), values(Fraction(1, 8))


D1, D2 = 10**999 - 1, 10**998 + 1  # coprime, so a common denominator of 1,998 digits


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fine_check_statistics())
@example(([Fraction(3 * D1 // 4, D1), Fraction(3 * D2 // 4, D2), Fraction(3 * D1 // 4, D1), Fraction(-3 * D2 // 4, D2)],
          [Fraction(1, D1), Fraction(-1, D2), Fraction(D1 // 8, D1), Fraction(-(D2 // 8), D2)]))
@example(([Fraction(D1 // 3, D1), Fraction(-(D2 // 3), D2), Fraction(1, D2), Fraction(D1 // 2, D1)], None))
def test_fine_check_matches_the_frozen_route_on_drawn_statistics(tmp_path, case):
    es, ms = case
    stats = BehaviorStatistics(CorrelationTable(*es), *(ms or ()))
    expected = ref.render_json(ref.fine_check_dict(stats, jp_feasible(stats)))
    argv = ["fine-check", "--correlations=" + ",".join(map(str, es))]
    if ms is not None:
        argv.append("--marginals=" + ",".join(map(str, ms)))
    assert _main(argv) == expected == _json_dumps(json.loads(expected))
    out = tmp_path / "fine.json"
    assert _main([*argv, "--out", str(out)]) == ""
    assert out.read_text() == expected
