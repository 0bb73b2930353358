"""The README's library tour and command-line examples run as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from bellcheck import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
COMMANDS = re.search(r"## Command line\n\n```\n(.*?)```", TEXT, re.S).group(1).splitlines()


def test_library_tour_runs():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", TEXT, re.S).group(1)
    assert "run_experiment" not in tour and "TrialLog" not in tour
    namespace = {}
    exec(compile(tour, "README.md library tour", "exec"), namespace)
    assert namespace["bc"].chsh_report(namespace["qcounts"]).s_star < -2


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(json.dumps({"model": "dice-coin", "n_per_series": 1000, "seed": 3}))
    program, *argv = shlex.split(line)
    assert program == "bellcheck"
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
