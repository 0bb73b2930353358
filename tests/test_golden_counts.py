"""Two-layer goldens: the counts each `run` golden case draws, then the
bytes those counts give.

A `run` digest in data/run_golden.json mixes two layers: the draw
(numpy's binomial and multinomial for a given model, n and seed) and the
report, a pure function of integer counts. data/run_counts.json holds,
for each of its 36 `run` cases by case name, what the run drew: per
setting pair in ``SETTING_PAIRS`` order, the 16 class counts of an LHV
model (``classes``) or the singlet's agreements (``agree``). They were
recorded with the code of version 0.4.0, as the digests were.

The draw test runs each argv and compares the counts `run` drew with the
record; a mismatch names the pair, the class and the numpy version. The
report test hands `run` the recorded counts in place of a draw, so its
digest checks the report layer alone. test_golden.py still checks the
two layers together.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bellcheck import cli
from bellcheck.core import SETTING_PAIRS
from bellcheck.engine import RunCounts

DATA = Path(__file__).parent / "data"
GOLDEN = {c["case"]: c for c in json.loads((DATA / "run_golden.json").read_text())}
COUNTS = json.loads((DATA / "run_counts.json").read_text())
BUILDERS = ("count_experiment", "count_quantum_experiment")


def _run(case, capsys, monkeypatch) -> str:
    if "threads" in case:
        monkeypatch.setenv("BELLCHECK_THREADS", case["threads"])
    else:
        monkeypatch.delenv("BELLCHECK_THREADS", raising=False)
    assert cli.main(case["argv"]) == 0
    return capsys.readouterr().out


def _recorded(record) -> tuple[str, dict]:
    """The record's kind, ``classes`` or ``agree``, and its per-pair counts."""
    (kind, values), = record.items()
    return kind, {pair: tuple(v) if kind == "classes" else v for pair, v in zip(SETTING_PAIRS, values)}


def test_every_run_case_has_its_counts():
    assert set(COUNTS) == {name for name, case in GOLDEN.items() if case["argv"][0] == "run"}
    assert len(COUNTS) == 36
    for name, record in COUNTS.items():
        kind, _ = _recorded(record)
        assert kind == ("agree" if "quantum" in GOLDEN[name]["argv"] else "classes"), name


@pytest.mark.parametrize("name", COUNTS)
def test_run_draws_the_recorded_counts(name, capsys, monkeypatch):
    drawn = []
    for builder in BUILDERS:
        def recording(*args, _real=getattr(cli, builder)):
            drawn.append(_real(*args))
            return drawn[-1]
        monkeypatch.setattr(cli, builder, recording)
    _run(GOLDEN[name], capsys, monkeypatch)
    (counts,) = drawn
    kind, expected = _recorded(COUNTS[name])
    got = getattr(counts, kind)
    for pair in SETTING_PAIRS:
        assert got[pair] == expected[pair], (
            f"pair {pair}: drew {kind} {got[pair]}, recorded {expected[pair]}"
            + (f" (first differing class {next(c for c in range(16) if got[pair][c] != expected[pair][c])})"
               if kind == "classes" else "")
            + f"; numpy {np.__version__}"
        )


@pytest.mark.parametrize("name", COUNTS)
def test_recorded_counts_give_the_golden_bytes(name, capsys, monkeypatch):
    kind, values = _recorded(COUNTS[name])

    def recorded(what, n_per_series, seed):
        return RunCounts(seed, n_per_series, **{kind: values})

    for builder in BUILDERS:
        monkeypatch.setattr(cli, builder, recorded)
    out = _run(GOLDEN[name], capsys, monkeypatch)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]["sha256"]
