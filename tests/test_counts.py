"""The count path (`count_experiment`, `count_quantum_experiment`) against
the trial-log path (`run_experiment`, `run_quantum_experiment`).

Both draw the same blocks from the same (seed, pair, block) streams; the
count path reduces each block to integer counts at once, the log path keeps
every click and tag and reduces the log afterwards. Their reports must be
equal for every model route (class table, batch twins, scalar responses,
singlet), at block-edge sizes, on any worker count and dispatch order. The
memory test pins that the count path holds no trial log.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellcheck.core import SETTING_PAIRS, Behavior
from bellcheck.engine import (
    RunCounts,
    chsh_report,
    class_frequencies,
    count_experiment,
    log_counts,
    run_experiment,
)
from bellcheck.quantum import (
    _CELL_A,
    _CELL_B,
    TSIRELSON_ANGLES,
    AnglePair,
    _cell_boundaries,
    _count_agreements,
    count_quantum_experiment,
    run_quantum_experiment,
    sample_quantum_batch,
)
from bellcheck.streams import BLOCK_SIZE
from bellcheck.zoo import MODEL_FACTORIES

SRC = Path(__file__).resolve().parent.parent / "src"


def _batch_twins(name):
    return dataclasses.replace(MODEL_FACTORIES[name](), enumerate_lambda=None)


def _scalar_only():
    return dataclasses.replace(
        MODEL_FACTORIES["dice-coin"](),
        enumerate_lambda=None, respond_alice_batch=None, respond_bob_batch=None,
    )


#: (id, model factory): every zoo model on its class table, each one again
#: on its batch twins, and one on its scalar responses alone
LHV_ROUTES = (
    [(name, MODEL_FACTORIES[name]) for name in sorted(MODEL_FACTORIES)]
    + [(f"{name} twins", lambda name=name: _batch_twins(name)) for name in sorted(MODEL_FACTORIES)]
    + [("dice-coin scalar", _scalar_only)]
)

SIZES = [1, BLOCK_SIZE - 1, BLOCK_SIZE + 1, 49159]

#: (id, keyword arguments of the count path)
DISPATCH = [("1 worker", {"n_workers": 1}), ("3 workers", {"n_workers": 3}),
            ("interleaved", {"n_workers": 1, "interleave": True})]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("factory", [r[1] for r in LHV_ROUTES], ids=[r[0] for r in LHV_ROUTES])
def test_lhv_counts_match_the_trial_log(factory, n):
    model = factory()
    log = run_experiment(model, n, seed=23, n_workers=1)
    report, freqs = chsh_report(log), class_frequencies(log, model)
    for label, kwargs in DISPATCH:
        counts = count_experiment(model, n, seed=23, **kwargs)
        assert chsh_report(counts) == report, label
        assert class_frequencies(counts) == freqs, label
        assert counts.seed == log.seed and counts.n_per_series == n


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("angles", [TSIRELSON_ANGLES, AnglePair(0.3, 1.9, -0.8, 2.6)], ids=["tsirelson", "custom"])
def test_quantum_counts_match_the_trial_log(angles, n):
    log = run_quantum_experiment(angles, n, seed=29, n_workers=1)
    report = chsh_report(log)
    for label, kwargs in DISPATCH:
        counts = count_quantum_experiment(angles, n, seed=29, **kwargs)
        assert chsh_report(counts) == report, label
        assert counts.agree == log_counts(log).agree, label
        assert counts.classes is None


def test_lhv_agreements_read_off_the_classes_equal_the_clicks():
    for name, factory in LHV_ROUTES:
        model = factory()
        log = run_experiment(model, 3000, seed=5)
        assert count_experiment(model, 3000, seed=5).agree == log_counts(log, model).agree, name


def test_quantum_counts_have_no_classes():
    counts = count_quantum_experiment(TSIRELSON_ANGLES, 100, seed=0)
    with pytest.raises(ValueError, match="class"):
        class_frequencies(counts)


def test_run_counts_validation():
    agree = dict.fromkeys(SETTING_PAIRS, 3)
    with pytest.raises(ValueError):
        RunCounts(0, 5, {p: a for p, a in agree.items() if p != (2, 2)})
    with pytest.raises(ValueError):
        RunCounts(0, 2, agree)
    classes = {p: np.bincount([15, 15, 0], minlength=16) for p in SETTING_PAIRS}
    with pytest.raises(ValueError):
        RunCounts(0, 4, agree, classes)
    freqs = class_frequencies(RunCounts(0, 3, agree, classes))
    assert freqs.per_pair[(1, 2)] == {Behavior(1, 1, 1, 1): 2 / 3, Behavior(-1, -1, -1, -1): 1 / 3}


class FixedDeviates:
    """A stand-in stream whose ``random(n)`` returns given deviates."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def _deviates_at_boundaries(a, b):
    bounds = _cell_boundaries(a, b)
    near = [np.nextafter(x, d) for x in bounds for d in (-np.inf, np.inf)]
    grid = np.linspace(0.0, 1.0, 257, endpoint=False)
    return np.concatenate([[0.0, np.nextafter(1.0, 0.0)], bounds, near, grid])


#: angle differences at which cells are empty (cos = +-1) or a boundary
#: sits on a round value (cos = 0)
BOUNDARY_ANGLES = [(0.0, 0.0), (0.4, 0.4), (0.0, math.pi), (math.pi, 0.0), (0.0, math.pi / 2),
                   (0.0, 2 * math.pi), (1.0, 1.0 + math.pi / 3), (TSIRELSON_ANGLES.a1, TSIRELSON_ANGLES.b1)]


@pytest.mark.parametrize("a,b", BOUNDARY_ANGLES)
def test_threshold_cells_equal_searchsorted(a, b):
    u = _deviates_at_boundaries(a, b)
    cells = np.searchsorted(np.array(_cell_boundaries(a, b)), u, side="right")
    alice, bob = sample_quantum_batch(a, b, FixedDeviates(u), len(u))
    assert np.array_equal(alice, _CELL_A[cells]) and np.array_equal(bob, _CELL_B[cells])
    assert alice.dtype == bob.dtype == np.int8
    assert _count_agreements(a, b, FixedDeviates(u), len(u)) == np.count_nonzero(alice == bob)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, math.pi)])
def test_empty_cells_are_never_drawn(a, b):
    u = _deviates_at_boundaries(a, b)
    u = u[(u >= 0) & (u < 1)]  # the range of Generator.random
    alice, bob = sample_quantum_batch(a, b, FixedDeviates(u), len(u))
    # cos = 1: the clicks always disagree; cos = -1: they always agree
    assert np.all(alice != bob) if a == b else np.all(alice == bob)


_PEAK_RSS = """
import contextlib, io, resource, sys
from bellcheck import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kib(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), BELLCHECK_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    code, kib = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(kib)


@pytest.mark.parametrize("model,small,large", [("quantum", 1 << 14, 1 << 23), ("cosine-sign", 1 << 14, 1 << 21)])
def test_run_memory_is_flat_in_n(model, small, large):
    """A trial log of 2^23 trials per series holds about 200 MB; the count
    path holds one block per worker."""
    grow = [_peak_rss_kib("run", "--model", model, "--n", str(n), "--seed", "1") for n in (small, large)]
    assert grow[1] - grow[0] < 16 * 1024, f"peak RSS grew by {(grow[1] - grow[0]) / 1024:.1f} MB"
