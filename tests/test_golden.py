"""`run`, `bound`, `ghz-check` and `zoo` output must stay byte-identical
to the reference.

Each of the 43 cases in data/run_golden.json holds an argv, an optional
BELLCHECK_THREADS value and the sha256 of what the command wrote to
stdout: 39 of `run` and `bound`, 4 of `ghz-check` (with and without the
fifth constraint, and at another phi) and `zoo`.

The `run` digests were re-recorded four times: all 34 when the report
gained the violation test, all 34 when the streams moved from Philox to
PCG64DXSM, 28 for stream scheme v3 (version 0.3.0), which draws each
block's counts at once, and 12 for stream scheme v4 (version 0.4.0), which
draws each series' counts at once on block 0's stream: from the model's
compiled class distribution, or for the singlet from its word limits.
v4 changed only the cases whose series span more than one block (n =
49159); up to one block it draws what v3 drew. Each re-recording changes
every value a report samples from its streams; the conspiracy source
draws nothing, so its 6 digests, like the 7 of `bound`, `ghz-check` and
`zoo`, did not change. Each of the 28 cases that draw keeps the output of
the code before its last re-recording as ``parent_stdout`` (v3's for the
12 that v4 changed, v2's for the other 16), and
``test_rerecorded_reports_differ_from_the_parent_only_in_sampled_values``
checks that the two differ only in sampled values. In place of byte
equality with the old streams, ``tests/test_streams.py`` checks over
1,000 seeds per model that the reports stay within their bands at the
stated rate, and ``tests/test_counts.py`` that series drawn at once
follow their distributions over 200 seeds.

Cases recorded after the last re-recording carry ``added``, the version
whose code recorded them, and no ``parent_stdout``: dice-coin and
cosine-sign at n = 2^20, the size the benchmark runs, where dice-coin's
MI diagnostic ties between its two classes (version 0.4.0).
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from bellcheck import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "run_golden.json").read_text())


def _output(case, capsys, monkeypatch) -> str:
    if "threads" in case:
        monkeypatch.setenv("BELLCHECK_THREADS", case["threads"])
    else:
        monkeypatch.delenv("BELLCHECK_THREADS", raising=False)
    assert cli.main(case["argv"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", GOLDEN, ids=[c["case"] for c in GOLDEN])
def test_report_bytes_match_golden(case, capsys, monkeypatch):
    out = _output(case, capsys, monkeypatch)
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


#: What a report samples: the JSON fields, the MI fields and the CSV columns
#: whose values come from the streams.
SAMPLED = {"correlations", "s_star", "bound_satisfied", "violation_p_value", "violation_significant"}
SAMPLED_MI = {"holds", "max_deviation", "worst_pair", "worst_class"}
SAMPLED_COLUMNS = {"e_hat", "s_star", "violation_p_value", "violation_significant"}


def _unsampled(argv, text):
    """Everything of a command's output but its sampled values: CSV cells
    outside the sampled columns; JSON fields outside the sampled ones, the
    pairs (not the classes) of the class frequencies. Output of a command
    other than `run` is kept whole."""
    if argv[0] != "run":
        return text
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        kept, header = [], None
        for row in csv.reader(io.StringIO(text)):
            if row[0] in ("pair_i", "s_star"):  # the two header rows
                header = row
                kept.append(row)
            else:
                kept.append([None if name in SAMPLED_COLUMNS else cell for name, cell in zip(header, row, strict=True)])
        return kept
    report = json.loads(text)
    assert SAMPLED <= set(report)
    for key in SAMPLED:
        report[key] = None
    if "class_frequencies" in report:
        report["class_frequencies"] = sorted(report["class_frequencies"])
        assert SAMPLED_MI <= set(report["mi"])
        report["mi"].update(dict.fromkeys(SAMPLED_MI))
    return report


@pytest.mark.parametrize("case", GOLDEN, ids=[c["case"] for c in GOLDEN])
def test_rerecorded_reports_differ_from_the_parent_only_in_sampled_values(case, capsys, monkeypatch):
    out = _output(case, capsys, monkeypatch)
    argv = case["argv"]
    draws = argv[0] == "run" and argv[argv.index("--model") + 1] != "conspiracy"
    rerecorded = draws and "added" not in case
    assert ("parent_stdout" in case) == rerecorded
    parent = case.get("parent_stdout", out)
    assert (parent != out) == rerecorded
    assert _unsampled(argv, out) == _unsampled(argv, parent)


def test_golden_covers_every_zoo_model_and_format():
    runs = [c["argv"] for c in GOLDEN if c["argv"][0] == "run"]
    models = {argv[argv.index("--model") + 1] for argv in runs}
    assert models == {"dice-coin", "cosine-sign", "conspiracy", "quantum"}
    assert {argv[argv.index("--format") + 1] for argv in runs if "--format" in argv} == {"json", "csv"}
    assert any("--angles" in argv for argv in runs)
    assert any("threads" in c for c in GOLDEN)
    assert {c["argv"][2] for c in GOLDEN if c["argv"][0] == "bound"} == models - {"quantum"}

