"""``cli._render_json`` writes exactly what ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` writes, for every value a report holds, and refuses
what json.dumps refuses.

The writer is checked on the objects every JSON golden command renders
(`run`, `bound`, `ghz-check` in run_golden.json and every fine-check
golden), and on nested report-like values drawn by hypothesis: signed
zeros, subnormals, 2^53 + 1, non-finite floats, numpy float64, escapes and
non-ASCII text in keys and values, empty containers and tuples. The
equality holds per Python version, since json's encoder differs between
them; CI runs this file on each version of its matrix.
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
ARGVS = [c["argv"] for c in json.loads((DATA / "run_golden.json").read_text())] + [
    c["argv"] for c in json.loads((DATA / "fine_check_golden.json").read_text())
]


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(argv) for argv in ARGVS])
def test_writer_matches_json_dumps_on_every_golden_command(argv, monkeypatch):
    rendered, writer = [], cli._render_json

    def render(obj):
        rendered.append((obj, writer(obj)))
        return rendered[-1][1]

    monkeypatch.setattr(cli, "_render_json", render)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    is_json = argv[0] != "zoo" and "csv" not in argv
    assert len(rendered) == is_json
    for obj, text in rendered:
        assert text == _json_dumps(obj) == buf.getvalue()


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
