"""Running CHSH experiments and analyzing them.

Empirical side: ``run_experiment`` produces four independent series of
trials (one per setting pair), ``estimate_correlation`` and
``chsh_statistic`` reduce them to the S* number, and ``class_frequencies``
plus ``mi_diagnostic`` inspect how the hidden-variable classes were
distributed across the four series.

Analytic side: given exact class weights, ``theoretical_correlations``
and ``theoretical_chsh`` evaluate the same quantities in exact arithmetic.
``theoretical_chsh`` also exposes the per-class combination
C = A1*B1 - A1*B2 + A2*B1 + A2*B2, which is +-2 for every class; that is
the whole reason a single weight distribution can never push |S| past 2.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping

import numpy as np

from .core import (
    ALL_BEHAVIORS,
    DOMAIN_SLACK,
    PAIR_CODES,
    SETTING_PAIRS,
    VERDICT_SLACK,
    Behavior,
    CorrelationTable,
    LhvModel,
    behavior_codes,
    behavior_of,
    pair_outcomes,
    within,
)
from .errors import BoundViolationError, ModelError
from .streams import iter_blocks, schedule_stream, trial_stream, validate_seed


@dataclass(frozen=True, eq=False)
class Series:
    """One setting pair's trials in columnar form."""

    pair: tuple[int, int]
    alice: np.ndarray
    bob: np.ndarray
    lambdas: np.ndarray | None = None

    def __post_init__(self):
        if len(self.alice) != len(self.bob):
            raise ValueError("alice/bob click arrays differ in length")
        if self.lambdas is not None and len(self.lambdas) != len(self.alice):
            raise ValueError("lambda array length does not match clicks")
        for arr in (self.alice, self.bob, self.lambdas):
            if arr is not None:
                arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.alice)

    def equals(self, other: "Series") -> bool:
        if self.pair != other.pair or len(self) != len(other):
            return False
        if not (np.array_equal(self.alice, other.alice) and np.array_equal(self.bob, other.bob)):
            return False
        if (self.lambdas is None) != (other.lambdas is None):
            return False
        return self.lambdas is None or np.array_equal(self.lambdas, other.lambdas)


@dataclass(frozen=True, eq=False)
class TrialLog:
    """Four series of trials plus the seed that generated them."""

    series: Mapping[tuple[int, int], Series]
    seed: int
    n_per_series: int

    def __post_init__(self):
        if set(self.series) != set(SETTING_PAIRS):
            raise ValueError("a trial log needs exactly the four setting pairs")
        for pair, s in self.series.items():
            if len(s) != self.n_per_series:
                raise ValueError(f"series {pair} has {len(s)} trials, expected {self.n_per_series}")

    @property
    def has_lambdas(self) -> bool:
        return all(s.lambdas is not None for s in self.series.values())

    def equals(self, other: "TrialLog") -> bool:
        return (
            self.seed == other.seed
            and self.n_per_series == other.n_per_series
            and all(self.series[p].equals(other.series[p]) for p in SETTING_PAIRS)
        )


@dataclass(frozen=True)
class ClassFrequencies:
    """Relative frequency of each behavior class, per setting pair."""

    per_pair: Mapping[tuple[int, int], Mapping[Behavior, Any]]

    def __post_init__(self):
        for pair, freqs in self.per_pair.items():
            if len(freqs) > 16:
                raise ValueError(f"pair {pair} has more than 16 behavior classes")
            validate_weights(freqs)


@dataclass(frozen=True)
class MiDiagnostic:
    holds: bool
    worst_pair: tuple[int, int]
    worst_class: Behavior | None
    max_deviation: float


@dataclass(frozen=True)
class ChshReport:
    """Summary of one experiment: the table, S*, and the per-correlation
    99% Hoeffding half-width."""

    table: CorrelationTable
    s_star: float
    bound_satisfied: bool
    n_per_series: int
    hoeffding_epsilon: float

    def __post_init__(self):
        expected = self.table.e11 - self.table.e12 + self.table.e21 + self.table.e22
        if self.s_star != expected:
            raise ValueError("s_star does not equal e11 - e12 + e21 + e22 of its table")


def hoeffding_epsilon(n: int, delta: float = 0.01, value_range: float = 2.0) -> float:
    """Two-sided Hoeffding half-width for a mean of n bounded draws.

    For outcomes in [-1, +1] the range is 2, giving
    epsilon = 2 * sqrt(ln(2/delta) / (2 n)); the mean then stays within
    epsilon of its expectation with probability at least 1 - delta.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return value_range * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


# A trial sampler maps (pair, block stream, count) to click arrays plus an
# optional tag array. LHV and quantum generation share this hook.
TrialSampler = Callable[
    [tuple[int, int], np.random.Generator, int],
    tuple[np.ndarray, np.ndarray, np.ndarray | None],
]


def _resolve_workers(n_workers: int | None) -> int:
    if n_workers is not None:
        if n_workers < 1:
            raise ValueError("worker count must be at least 1")
        return n_workers
    env = os.environ.get("BELLCHECK_THREADS", "").strip()
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"BELLCHECK_THREADS must be an integer of at least 1, got {env!r}")
    return workers


def generate_trial_log(
    sampler: TrialSampler,
    n_per_series: int,
    seed: int,
    *,
    n_workers: int | None = None,
    interleave: bool = False,
) -> TrialLog:
    """Generate the four series block by block and assemble a TrialLog.

    Work is split into fixed blocks keyed by (seed, pair, block); the
    assembled log is bitwise identical for any worker count and any
    dispatch order. ``interleave`` shuffles the dispatch order (a
    deterministic function of the seed) to exercise that property.
    """
    if (
        isinstance(n_per_series, bool)
        or not isinstance(n_per_series, (int, np.integer))
        or n_per_series < 1
    ):
        raise ValueError(f"n_per_series must be an integer of at least 1, got {n_per_series!r}")
    seed = validate_seed(seed)
    workers = _resolve_workers(n_workers)

    tasks = [
        (pair, block, stop - start)
        for pair in SETTING_PAIRS
        for block, start, stop in iter_blocks(n_per_series)
    ]
    if interleave:
        order = schedule_stream(seed).permutation(len(tasks))
        tasks = [tasks[i] for i in order]

    def run_task(task):
        pair, block, count = task
        rng = trial_stream(seed, PAIR_CODES[pair], block)
        return (pair, block), sampler(pair, rng, count)

    if workers == 1:
        results = dict(run_task(t) for t in tasks)
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = dict(pool.map(run_task, tasks))

    series = {}
    for pair in SETTING_PAIRS:
        chunks = [results[(pair, block)] for block, _, _ in iter_blocks(n_per_series)]
        alice = np.concatenate([c[0] for c in chunks])
        bob = np.concatenate([c[1] for c in chunks])
        lams = None
        if chunks[0][2] is not None:
            lams = np.concatenate([c[2] for c in chunks])
        series[pair] = Series(pair, alice, bob, lams)
    return TrialLog(series=series, seed=seed, n_per_series=n_per_series)


def _lhv_sampler(model: LhvModel) -> TrialSampler:
    model.class_table  # compiled here, before any worker starts

    def sample(pair, rng, count):
        try:
            lams = np.asarray(model.sample_lambda(rng, count, pair))
        except Exception as exc:
            raise ModelError(f"model {model.name!r}: sample_lambda failed: {exc}") from exc
        if len(lams) != count:
            raise ModelError(f"model {model.name!r}: sampler returned {len(lams)} tags for {count} trials")
        return (*pair_outcomes(model, pair, lams), lams)

    return sample


def run_experiment(
    model: LhvModel,
    n_per_series: int,
    seed: int,
    *,
    n_workers: int | None = None,
    interleave: bool = False,
) -> TrialLog:
    """Run the four series of an LHV model and log every click and tag."""
    return generate_trial_log(
        _lhv_sampler(model), n_per_series, seed, n_workers=n_workers, interleave=interleave
    )


def estimate_correlation(series: Series) -> float:
    """Empirical correlation (1/N) * sum of A_l * B_l over a series."""
    if len(series) == 0:
        raise ValueError("cannot estimate a correlation from an empty series")
    return float(np.mean(series.alice.astype(np.float64) * series.bob))


def chsh_statistic(table: CorrelationTable):
    """S = E11 - E12 + E21 + E22. Exact when the table is exact."""
    return table.e11 - table.e12 + table.e21 + table.e22


def empirical_table(log: TrialLog) -> CorrelationTable:
    return CorrelationTable(*(estimate_correlation(log.series[p]) for p in SETTING_PAIRS))


def chsh_report(log: TrialLog, delta: float = 0.01) -> ChshReport:
    table = empirical_table(log)
    s = chsh_statistic(table)
    return ChshReport(
        table=table,
        s_star=s,
        bound_satisfied=within(abs(s), 2, VERDICT_SLACK),
        n_per_series=log.n_per_series,
        hoeffding_epsilon=hoeffding_epsilon(log.n_per_series, delta),
    )


def class_frequencies(log: TrialLog, model: LhvModel) -> ClassFrequencies:
    """Map each logged tag to its behavior class (through the model's
    class table when it has one) and count the classes, separately for
    each setting pair."""
    per_pair = {}
    for pair in SETTING_PAIRS:
        s = log.series[pair]
        if s.lambdas is None:
            raise ValueError(
                f"series {pair} carries no hidden-variable tags; "
                "class analysis is undefined for quantum logs"
            )
        codes = behavior_codes(model, s.lambdas)
        counts = np.bincount(codes, minlength=16)
        n = len(s)
        per_pair[pair] = {
            ALL_BEHAVIORS[c]: counts[c] / n for c in range(16) if counts[c] > 0
        }
    return ClassFrequencies(per_pair=per_pair)


def exact_class_weights(
    model: LhvModel, pair: tuple[int, int] = (1, 1)
) -> dict[Behavior, Fraction]:
    """Exact behavior-class weights for one setting pair, from the
    model's declared tag distribution (classified through the model's
    class table when it has one)."""
    if model.enumerate_lambda is None:
        raise ValueError(f"model {model.name!r} does not declare an exact tag distribution")
    table = model.class_table
    weights: dict[Behavior, Fraction] = {}
    for tag, w in model.enumerate_lambda(pair):
        beh = behavior_of(model, tag) if table is None else ALL_BEHAVIORS[table[tag]]
        weights[beh] = weights.get(beh, Fraction(0)) + Fraction(w)
    total = sum(weights.values())
    if total != 1:
        raise ValueError(f"model {model.name!r}: declared tag weights sum to {total}, not 1")
    return weights


def exact_class_frequencies(model: LhvModel) -> ClassFrequencies:
    """Exact per-pair class frequencies (the analytic twin of
    class_frequencies on a sampled log)."""
    return ClassFrequencies(
        per_pair={pair: exact_class_weights(model, pair) for pair in SETTING_PAIRS}
    )


def validate_weights(weights: Mapping[Behavior, Any]) -> None:
    if any(w < 0 for w in weights.values()):
        raise ValueError("class weights must be nonnegative")
    total = sum(weights.values())
    if not within(abs(total - 1), 0, DOMAIN_SLACK):
        raise ValueError(f"class weights sum to {total}, not 1")


def theoretical_correlations(weights: Mapping[Behavior, Any]) -> CorrelationTable:
    """E(a_i, b_k) = sum over classes of w * A_i * B_k, exact when the
    weights are exact."""
    validate_weights(weights)
    es = []
    for i, k in SETTING_PAIRS:
        es.append(sum(w * (beh.alice(i) * beh.bob(k)) for beh, w in weights.items()))
    return CorrelationTable(*es)


def class_chsh_value(behavior: Behavior) -> int:
    """C = A1*B1 - A1*B2 + A2*B1 + A2*B2 for one class; always -2 or +2,
    since it factors as A1*(B1 - B2) + A2*(B1 + B2) and exactly one
    parenthesis is nonzero."""
    c = (
        behavior.a1 * behavior.b1
        - behavior.a1 * behavior.b2
        + behavior.a2 * behavior.b1
        + behavior.a2 * behavior.b2
    )
    if c not in (-2, 2):
        raise BoundViolationError(f"per-class CHSH value {c} outside {{-2, +2}}")
    return c


def theoretical_chsh(weights: Mapping[Behavior, Any]) -> tuple[Any, dict[Behavior, int]]:
    """Exact CHSH value of a single class-weight distribution.

    Returns (s, per-class C values). Because every C is -2 or +2 and the
    weights form a probability distribution, |s| <= 2 always; the bound
    is re-checked here and a failure raises BoundViolationError.
    """
    validate_weights(weights)
    per_class = {beh: class_chsh_value(beh) for beh in weights}
    s = sum(w * per_class[beh] for beh, w in weights.items())
    if not within(abs(s), 2, VERDICT_SLACK):
        raise BoundViolationError(f"single-distribution CHSH value {s} exceeds 2")
    return s, per_class


def mi_diagnostic(freqs: ClassFrequencies, tolerance: float) -> MiDiagnostic:
    """Compare each pair's class frequencies against pair (1,1).

    Measurement independence predicts identical distributions; the
    diagnostic reports the largest |p(class | pair) - p(class | (1,1))|
    and whether it stays within tolerance.
    """
    if set(freqs.per_pair) != set(SETTING_PAIRS):
        raise ValueError("mi_diagnostic needs class frequencies for all four setting pairs")
    reference = freqs.per_pair[(1, 1)]
    worst_pair = (1, 1)
    worst_class: Behavior | None = None
    max_dev = 0.0
    for pair in SETTING_PAIRS[1:]:
        current = freqs.per_pair[pair]
        for beh in set(reference) | set(current):
            dev = abs(float(current.get(beh, 0)) - float(reference.get(beh, 0)))
            if dev > max_dev:
                max_dev = dev
                worst_pair = pair
                worst_class = beh
    return MiDiagnostic(
        holds=max_dev <= tolerance,
        worst_pair=worst_pair,
        worst_class=worst_class,
        max_deviation=max_dev,
    )


def exact_correlation_table(model: LhvModel) -> CorrelationTable:
    """Exact E(a_i, b_k) where each pair uses its own tag distribution.

    For a model honouring measurement independence this equals
    theoretical_correlations of any single pair's weights; for a
    conspiring sampler the four entries come from four different
    distributions and no single-distribution bound applies.
    """
    es = []
    for pair in SETTING_PAIRS:
        weights = exact_class_weights(model, pair)
        i, k = pair
        es.append(sum(w * (beh.alice(i) * beh.bob(k)) for beh, w in weights.items()))
    return CorrelationTable(*es)
