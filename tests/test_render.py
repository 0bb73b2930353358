"""Every JSON output is exactly what ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` writes.

``cli._render_json`` writes the `bound`, `fine-check` and `ghz-check`
reports. It is checked on the objects every such golden command renders,
and on nested report-like values drawn by hypothesis: signed zeros,
subnormals, 2^53 + 1, non-finite floats, numpy float64, escapes and
non-ASCII text in keys and values, empty containers and tuples; it refuses
what json.dumps refuses. `run` writes its fixed layout directly, without
``_render_json``; its output must equal json.dumps of its own parse, on
every `run` JSON golden command and on models, sizes, seeds and angles
drawn by hypothesis. The equalities hold per Python version, since json's
encoder differs between them; CI runs this file on each version of its
matrix.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcheck import cli

DATA = Path(__file__).parent / "data"
GOLDEN_ARGVS = [c["argv"] for c in json.loads((DATA / "run_golden.json").read_text())] + [
    c["argv"] for c in json.loads((DATA / "fine_check_golden.json").read_text())
]
ARGVS = [argv for argv in GOLDEN_ARGVS if argv[0] != "run"]
RUN_ARGVS = [argv for argv in GOLDEN_ARGVS if argv[0] == "run" and "csv" not in argv]


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) for argv in ARGVS])
def test_writer_matches_json_dumps_on_every_golden_command(argv, monkeypatch):
    rendered, writer = [], cli._render_json

    def render(obj):
        rendered.append((obj, writer(obj)))
        return rendered[-1][1]

    monkeypatch.setattr(cli, "_render_json", render)
    out = _main(argv)
    assert len(rendered) == (argv[0] != "zoo")
    for obj, text in rendered:
        assert text == _json_dumps(obj) == out


def _main(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _check_run_json(argv):
    def render(obj):
        raise AssertionError("run rendered through _render_json")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_render_json", render)
        out = _main(argv)
    assert out == _json_dumps(json.loads(out))


@pytest.mark.parametrize("argv", RUN_ARGVS, ids=[" ".join(argv) for argv in RUN_ARGVS])
def test_run_writes_what_json_dumps_writes_on_every_golden_command(argv):
    _check_run_json(argv)


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
    _check_run_json(argv)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float(2**53 + 1),
                  1e16, 1e-7, 0.1, math.inf, -math.inf, math.nan]
TEXT = st.text(alphabet=st.characters(codec="utf-8")) | st.sampled_from(
    ["", "\"", "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "±", "😀", " ", "+-+-"])
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**53 + 1, -(2**63), 2**64])
    | FLOATS | FLOATS.map(np.float64) | TEXT
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(TEXT, VALUES, max_size=6) | VALUES)
def test_writer_matches_json_dumps_on_report_like_values(obj):
    assert cli._render_json(obj) == _json_dumps(obj)


@pytest.mark.parametrize("bad", [np.int64(0), np.bool_(True), {1, 2}, b"bytes", np.float32(0.5), object()],
                         ids=["int64", "bool_", "set", "bytes", "float32", "object"])
def test_values_json_refuses_raise_type_error(bad):
    for obj in ({"key": bad}, {"key": [1, {"nested": bad}]}):
        with pytest.raises(TypeError):
            _json_dumps(obj)
        with pytest.raises(TypeError):
            cli._render_json(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {None: 0}, {"a": {2.5: 1}}, {"a": 1, 1: "a"}, {(1, 2): 0}],
                         ids=["int", "None", "nested float", "mixed", "tuple"])
def test_a_key_that_is_not_a_str_raises_type_error(obj):
    with pytest.raises(TypeError):
        cli._render_json(obj)
