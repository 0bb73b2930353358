"""The LHV count path (`count_experiment`) against the trial-log path
(`run_experiment`), and the singlet's raw-word counts.

Both LHV paths draw the same blocks from the same (seed, pair, block)
streams; the count path reduces each block to integer counts at once, the
log path keeps every click and tag and reduces the log afterwards. Their
reports must be equal for every model route (class table, batch twins,
scalar responses; the batch twins belong to the test-only models of
``batch_models``), at block-edge sizes, on one worker and on three. The
singlet has no trial log: its counts are checked against the per-trial
reference of ``trial_reference`` on one worker and on three, and the
threshold tests feed its raw-word limits words on both sides of every
limit. The memory tests pin that the count path holds no trial log and
that building a log costs little more than the log itself.
"""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from batch_models import LHV_ROUTES, route_model, without_table
from bellcheck.core import SETTING_PAIRS, Behavior, LhvModel
from bellcheck.engine import (
    RunCounts,
    chsh_report,
    class_frequencies,
    count_experiment,
    log_counts,
    run_experiment,
)
from bellcheck import core, engine, quantum
from bellcheck.quantum import TSIRELSON_ANGLES, AnglePair, _cell_boundaries, _count_agreements, count_quantum_experiment
from bellcheck.streams import BLOCK_SIZE, trial_stream
from bellcheck.zoo import MODEL_FACTORIES
from trial_reference import assert_same_counts, singlet_reference_counts

SRC = Path(__file__).resolve().parent.parent / "src"


SIZES = [1, BLOCK_SIZE - 1, BLOCK_SIZE + 1, 49159]

#: (id, BELLCHECK_THREADS of the count path)
DISPATCH = [("1 worker", "1"), ("3 workers", "3")]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("factory", [r[1] for r in LHV_ROUTES], ids=[r[0] for r in LHV_ROUTES])
def test_lhv_counts_match_the_trial_log(factory, n, monkeypatch):
    model = route_model(factory)
    monkeypatch.setenv("BELLCHECK_THREADS", "1")
    log = run_experiment(model, n, seed=23)
    report, freqs = chsh_report(log), class_frequencies(log, model)
    for label, threads in DISPATCH:
        monkeypatch.setenv("BELLCHECK_THREADS", threads)
        counts = count_experiment(model, n, seed=23)
        assert chsh_report(counts) == report, label
        assert class_frequencies(counts) == freqs, label
        assert counts.seed == log.seed and counts.n_per_series == n


@pytest.mark.parametrize("n", [1, BLOCK_SIZE + 1])
@pytest.mark.parametrize("angles", [TSIRELSON_ANGLES, AnglePair(0.3, 1.9, -0.8, 2.6)], ids=["tsirelson", "custom"])
def test_quantum_counts_match_the_trial_log(angles, n, monkeypatch):
    # the singlet's trial-by-trial counts come from the per-trial reference
    want = singlet_reference_counts(angles, n, 29)
    for _, threads in DISPATCH:
        monkeypatch.setenv("BELLCHECK_THREADS", threads)
        assert_same_counts(count_quantum_experiment(angles, n, seed=29), want)


def test_lhv_agreements_read_off_the_classes_equal_the_clicks():
    for name, factory in LHV_ROUTES:
        model = route_model(factory)
        log = run_experiment(model, 3000, seed=5)
        assert count_experiment(model, 3000, seed=5).agree == log_counts(log, model).agree, name


def test_quantum_counts_have_no_classes():
    counts = count_quantum_experiment(TSIRELSON_ANGLES, 100, seed=0)
    with pytest.raises(ValueError, match="class"):
        class_frequencies(counts)


def test_count_path_leaves_engine_behavior_codes_to_the_calling_thread(monkeypatch):
    # a traced benchmark run wraps engine.behavior_codes in a recorder that
    # must run on its own thread; the count path's workers call the core
    # function, and log_counts calls the engine name on the caller's thread
    threads = []

    def recording(*args):
        threads.append(threading.get_ident())
        return core.behavior_codes(*args)

    monkeypatch.setattr(engine, "behavior_codes", recording)
    model = without_table(MODEL_FACTORIES["dice-coin"]())
    monkeypatch.setenv("BELLCHECK_THREADS", "3")
    counts = count_experiment(model, 1000, seed=9)
    assert set(threads) <= {threading.get_ident()}
    from_log = log_counts(run_experiment(model, 1000, seed=9), model)
    assert all(np.array_equal(from_log.classes[p], counts.classes[p]) for p in SETTING_PAIRS)
    assert threads and set(threads) == {threading.get_ident()}


def test_n_past_one_word_block_indices_is_rejected(monkeypatch):
    # at BLOCK_SIZE * 2**32 + 1 trials the last block index needs two
    # uint32 words; the samplers fail loudly if the run starts anyway
    def no_sampling(*args):
        raise AssertionError("sampled")

    model = LhvModel(name="never-sampled", respond_alice=lambda i, lam: 1, respond_bob=lambda i, lam: 1,
                     sample_lambda=no_sampling, declares_mi=True)
    monkeypatch.setattr(quantum, "_count_agreements", no_sampling)
    too_many = BLOCK_SIZE * 2**32 + 1
    with pytest.raises(ValueError, match="n_per_series"):
        count_experiment(model, too_many, seed=0)
    with pytest.raises(ValueError, match="n_per_series"):
        count_quantum_experiment(TSIRELSON_ANGLES, too_many, seed=0)


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


class FixedWords:
    """A stand-in stream whose ``bit_generator.random_raw(n)`` returns given
    raw 64-bit words."""

    def __init__(self, raw):
        self.raw = np.asarray(raw, dtype=np.uint64)
        self.bit_generator = self

    def random_raw(self, n):
        assert n == len(self.raw)
        return self.raw.copy()


def _words_at_boundaries(a, b):
    """Raw words whose top 53 bits are K - 1, K and K + 1 for each cell
    boundary x (K = ceil(x * 2**53)), the first and last top and a grid,
    each with low 11 bits 0, 2047 and random."""
    tops = [math.ceil(x * 2**53) + d for x in _cell_boundaries(a, b) for d in (-1, 0, 1)]
    tops += [0, 2**53 - 1] + [k << 45 for k in range(256)]
    tops = np.array([t for t in tops if 0 <= t < 2**53], dtype=np.uint64)
    noise = np.random.default_rng(len(tops)).integers(0, 1 << 11, size=len(tops), dtype=np.uint64)
    return np.concatenate([tops << np.uint64(11) | low for low in (np.uint64(0), np.uint64(2047), noise)])


def _deviates(raw):
    """What Generator.random() on Philox makes of raw words."""
    return (raw >> np.uint64(11)) * 2.0**-53


#: angle differences at which cells are empty (cos = +-1, a boundary at 0
#: or 1) or a boundary sits on a round value (cos = 0)
BOUNDARY_ANGLES = [(0.0, 0.0), (0.4, 0.4), (0.0, math.pi), (math.pi, 0.0), (0.0, math.pi / 2),
                   (0.0, 2 * math.pi), (1.0, 1.0 + math.pi / 3), (TSIRELSON_ANGLES.a1, TSIRELSON_ANGLES.b1)]


@pytest.mark.parametrize("a,b", BOUNDARY_ANGLES)
def test_threshold_cells_equal_searchsorted(a, b):
    raw = _words_at_boundaries(a, b)
    cells = np.searchsorted(np.array(_cell_boundaries(a, b)), _deviates(raw), side="right")
    # the clicks agree in cells 0, (+1,+1), and 3, (-1,-1)
    assert _count_agreements(a, b, FixedWords(raw), len(raw)) == np.count_nonzero((cells == 0) | (cells == 3))


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.0, math.pi)])
def test_empty_cells_are_never_drawn(a, b):
    raw = _words_at_boundaries(a, b)
    # cos = 1: the clicks always disagree; cos = -1: they always agree
    assert _count_agreements(a, b, FixedWords(raw), len(raw)) == (0 if a == b else len(raw))


@pytest.mark.parametrize("key", [(0, 0, 0), (29, 3, 7), (2**64 - 1, 1, 1000)])
def test_philox_deviates_are_raw_words_shifted(key):
    """The singlet compares raw words against limits because this holds."""
    assert np.array_equal(trial_stream(*key).random(5000), _deviates(trial_stream(*key).bit_generator.random_raw(5000)))


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


_LOG_RSS = """
import resource, sys
from bellcheck.engine import run_experiment
from bellcheck.zoo import get_model

def log_of(n):
    return run_experiment(get_model(sys.argv[1]), n, seed=1)

log_of(1 << 15)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
log = log_of(int(sys.argv[2]))
grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
arrays = [a for s in log.series.values() for a in (s.alice, s.bob, s.lambdas)]
print(grew * 1024, sum(a.nbytes for a in arrays))
"""


@pytest.mark.parametrize("model", ["cosine-sign"])
def test_log_memory_is_near_its_bytes(model):
    """Each series concatenates its own blocks, so with one worker only
    one series is held twice (as blocks and joined), not the whole log."""
    env = dict(os.environ, PYTHONPATH=str(SRC), BELLCHECK_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _LOG_RSS, model, str(1 << 21)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grew, nbytes = map(int, proc.stdout.split())
    assert grew < 1.5 * nbytes, f"peak RSS grew by {grew / nbytes:.2f}x the log's {nbytes / 2**20:.1f} MB"
