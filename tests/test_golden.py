"""`run`, `bound`, `ghz-check` and `zoo` output must stay byte-identical
to the reference.

Each of the 41 cases in data/run_golden.json holds an argv, an optional
BELLCHECK_THREADS value and the sha256 of what the command wrote to
stdout: 37 of `run` and `bound`, 4 of `ghz-check` (with and without the
fifth constraint, and at another phi) and `zoo`. The LHV digests were
recorded before the LHV models were compiled to class tables, so they pin
the reports of the per-trial response path; the quantum digests were
recorded before `run` reduced blocks to counts, so they pin the reports of
the trial-log path.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bellcheck import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "run_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[c["case"] for c in GOLDEN])
def test_report_bytes_match_golden(case, capsys, monkeypatch):
    if "threads" in case:
        monkeypatch.setenv("BELLCHECK_THREADS", case["threads"])
    else:
        monkeypatch.delenv("BELLCHECK_THREADS", raising=False)
    assert cli.main(case["argv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_golden_covers_every_zoo_model_and_format():
    runs = [c["argv"] for c in GOLDEN if c["argv"][0] == "run"]
    models = {argv[argv.index("--model") + 1] for argv in runs}
    assert models == {"dice-coin", "cosine-sign", "conspiracy", "quantum"}
    assert {argv[argv.index("--format") + 1] for argv in runs if "--format" in argv} == {"json", "csv"}
    assert any("--angles" in argv for argv in runs)
    assert any("threads" in c for c in GOLDEN)
    assert {c["argv"][2] for c in GOLDEN if c["argv"][0] == "bound"} == models - {"quantum"}
