"""The README's library tour runs as written, on the count path."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", text, re.S).group(1)
    assert "run_experiment" not in tour and "TrialLog" not in tour
    namespace = {}
    exec(compile(tour, "README.md library tour", "exec"), namespace)
    assert namespace["bc"].chsh_report(namespace["qcounts"]).s_star < -2
