"""Running CHSH experiments and analyzing them.

Empirical side: ``count_experiment`` samples the four series (one per
setting pair) and keeps only integer counts: per pair, the trials in each
of the 16 behavior classes, and from them the trials whose clicks agree
(stream scheme v4: ``streams.draw_counts`` draws each series' counts at
once from the model's compiled class distribution where it declares one;
otherwise each block's tags are drawn and reduced to their class codes).
Every series runs on the calling thread. ``chsh_report`` reduces the
agreements to the S* number and the p-value of its excess over the LHV
bound 2, and ``class_frequencies`` plus ``mi_diagnostic`` inspect how the
classes were distributed across the four series. ``run_experiment`` draws
a ``TrialLog``: the same counts, plus every tag and every click, read off
each tag's class code at the measured settings.

Analytic side: given exact class weights, ``theoretical_correlations``
and ``theoretical_chsh`` evaluate the same quantities in exact arithmetic.
``theoretical_chsh`` also exposes the per-class combination
C = A1*B1 - A1*B2 + A2*B1 + A2*B2, which is +-2 for every class; that is
the whole reason a single weight distribution can never push |S| past 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from numbers import Integral
from typing import Any, Iterator, Mapping

import numpy as np

from .core import (
    _CODE_BIT,
    ALL_BEHAVIORS,
    CLASS_SIGNS,
    DOMAIN_SLACK,
    PAIR_CODES,
    SETTING_PAIRS,
    VERDICT_SLACK,
    Behavior,
    CorrelationTable,
    LhvModel,
    behavior_codes,
    within,
)
from .errors import BoundViolationError, ModelError
from .streams import check_run, draw_counts, iter_blocks, trial_stream


@dataclass(frozen=True, eq=False)
class RunCounts:
    """The integer counts a report is computed from, per setting pair.

    ``agree[pair]`` counts the trials whose two clicks agree;
    ``classes[pair]`` holds the count of each of the 16 behavior classes,
    indexed by code, for runs with hidden-variable tags (None otherwise).
    Runs make every count a Python int, so no report reads a numpy type.
    The size and seed must pass ``streams.check_run``.
    """

    seed: int
    n_per_series: int
    agree: Mapping[tuple[int, int], int]
    classes: Mapping[tuple[int, int], tuple[int, ...]] | None = None

    def __post_init__(self):
        check_run(self.n_per_series, self.seed)
        if set(self.agree) != set(SETTING_PAIRS):
            raise ValueError("run counts need exactly the four setting pairs")
        for pair, agree in self.agree.items():
            if not isinstance(agree, Integral) or not 0 <= agree <= self.n_per_series:
                raise ValueError(f"pair {pair}: {agree!r} agreements in {self.n_per_series} trials")
        for pair, counts in (self.classes or {}).items():
            total = sum(counts)  # a float if any entry is one
            if len(counts) != 16 or min(counts) < 0 or not isinstance(total, Integral) or total != self.n_per_series:
                raise ValueError(f"pair {pair}: class counts must be 16 nonnegative integers summing to "
                                 f"{self.n_per_series}, got {tuple(counts)}")


# No report a program makes reads the LHV trial log (Series, TrialLog,
# run_experiment), which is its run's counts plus the arrays. It stays for
# the benchmark: perfbench/tracing.py wraps engine.run_experiment by name and
# replays each log, and the lhv-continuous workload reads the log's arrays.
# ROADMAP item 1 moves the benchmark onto the count path; item 2 then deletes the log.
@dataclass(frozen=True, eq=False)
class Series:
    """One setting pair's trials in columnar form."""

    pair: tuple[int, int]
    alice: np.ndarray
    bob: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        if not len(self.alice) == len(self.bob) == len(self.lambdas):
            raise ValueError("click and lambda arrays differ in length")
        for arr in (self.alice, self.bob, self.lambdas):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.alice)


@dataclass(frozen=True, eq=False)
class TrialLog(RunCounts):
    """A run's counts plus its four series of trials."""

    series: Mapping[tuple[int, int], Series] = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if set(self.series) != set(SETTING_PAIRS):
            raise ValueError("a trial log needs exactly the four setting pairs")
        for pair, s in self.series.items():
            if len(s) != self.n_per_series:
                raise ValueError(f"series {pair} has {len(s)} trials, expected {self.n_per_series}")


@dataclass(frozen=True)
class ClassFrequencies:
    """Relative frequency of each behavior class, per setting pair."""

    per_pair: Mapping[tuple[int, int], Mapping[Behavior, Any]]

    def __post_init__(self):
        for freqs in self.per_pair.values():
            validate_weights(freqs)


@dataclass(frozen=True)
class MiDiagnostic:
    holds: bool
    worst_pair: tuple[int, int]
    worst_class: Behavior | None
    max_deviation: float


@dataclass(frozen=True)
class ChshReport:
    """Summary of one experiment: the table, S*, the per-correlation
    99% Hoeffding half-width, and the p-value of |S*| against the LHV
    bound 2 with its verdict at ``VIOLATION_DELTA``."""

    table: CorrelationTable
    s_star: float
    bound_satisfied: bool
    n_per_series: int
    hoeffding_epsilon: float
    violation_p_value: float
    violation_significant: bool

    def __post_init__(self):
        if self.s_star != chsh_statistic(self.table):
            raise ValueError("s_star does not equal the CHSH statistic of its table")


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


#: Significance level of the violation test: a report calls a violation
#: significant when its p-value is at most this.
VIOLATION_DELTA = 0.01


def violation_p_value(s_star: float, n: int) -> float:
    """Upper bound on the chance that a local model with measurement
    independence gives |S*| at least this far above 2.

    Under those assumptions S* is a mean of 4n independent terms, each with
    range 2/n, and |E[S*]| <= 2, so Hoeffding's inequality gives
    P(|S*| - 2 >= t) <= exp(-n t^2 / 8) with t = max(0, |S*| - 2); at
    t = 0 the bound is 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    t = max(0.0, abs(s_star) - 2)
    return math.exp(-n * t * t / 8)


def _tag_blocks(
    model: LhvModel, pair: tuple[int, int], n: int, seed: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield (start, stop, tags, their ``behavior_codes``) for each block of
    one series of ``model`` at setting ``pair``, in order, on the calling
    thread. Block j of a series draws its tags by ``sample_lambda`` from
    ``trial_stream(seed, pair_code, j)``; a sampler that raises or answers
    other than stop - start tags is a ModelError."""
    for block, start, stop in iter_blocks(n):
        rng = trial_stream(seed, PAIR_CODES[pair], block)
        try:
            tags = np.asarray(model.sample_lambda(rng, stop - start, pair))
        except Exception as exc:
            raise ModelError(f"model {model.name!r}: sample_lambda failed: {exc}") from exc
        if tags.shape != (stop - start,):
            raise ModelError(f"model {model.name!r}: sample_lambda returned tags of shape {tags.shape}, "
                             f"not {(stop - start,)}")
        yield start, stop, tags, behavior_codes(model, tags)


def run_experiment(model: LhvModel, n_per_series: int, seed: int) -> TrialLog:
    """Run the four series of an LHV model, count each block's classes as it
    is drawn (as on the tag path) and log every tag and click, read off its
    code at the measured settings. Each series writes its blocks in order
    into arrays of n trials: int8 clicks, and tags of the blocks' promoted
    dtype (what concatenating them gives)."""
    n_per_series, seed = check_run(n_per_series, seed)
    series, classes = {}, {}
    for i, k in SETTING_PAIRS:
        alice, bob = np.empty(n_per_series, np.int8), np.empty(n_per_series, np.int8)
        counts = np.zeros(16, np.int64)
        for start, stop, lams, codes in _tag_blocks(model, (i, k), n_per_series, seed):
            counts += np.bincount(codes, minlength=16)
            # each click is its code's bit for the setting (0 or 1), as -1 or +1
            alice[start:stop] = (codes >> _CODE_BIT["alice", i] & 1).astype(np.int8) * 2 - 1
            bob[start:stop] = (codes >> _CODE_BIT["bob", k] & 1).astype(np.int8) * 2 - 1
            if start == 0:
                lambdas = np.empty(n_per_series, lams.dtype)
            elif (dtype := np.result_type(lambdas.dtype, lams.dtype)) != lambdas.dtype:
                lambdas = lambdas.astype(dtype)
            lambdas[start:stop] = lams
        classes[i, k] = tuple(counts.tolist())
        series[i, k] = Series((i, k), alice, bob, lambdas)
    return TrialLog(seed, n_per_series, _agree(classes), classes, series=series)


#: Per setting pair (i, k), which of the 16 behavior codes have A_i == B_k.
_AGREEING = {pair: tuple(sign > 0 for sign in signs) for pair, signs in CLASS_SIGNS.items()}


def count_experiment(model: LhvModel, n_per_series: int, seed: int) -> RunCounts:
    """Run the four series of an LHV model and keep, per setting pair, the
    count of each behavior class.

    A model that declares its tag distribution draws the counts from its
    compiled ``class_distribution`` (``streams.draw_counts``); a model
    without one draws each block's tags through ``sample_lambda`` and
    counts their codes.
    """
    n_per_series, seed = check_run(n_per_series, seed)
    if model.class_distribution is not None:
        classes = draw_counts(model.class_distribution, n_per_series, seed)
    else:
        classes = {pair: tuple(sum(np.bincount(codes, minlength=16)
                                   for *_, codes in _tag_blocks(model, pair, n_per_series, seed)).tolist())
                   for pair in SETTING_PAIRS}
    return RunCounts(seed, n_per_series, _agree(classes), classes)


def _agree(classes: Mapping[tuple[int, int], tuple[int, ...]]) -> dict[tuple[int, int], int]:
    """Per setting pair, the trials whose two clicks agree, from its class counts."""
    return {pair: sum(compress(classes[pair], _AGREEING[pair])) for pair in SETTING_PAIRS}


def _correlation(agree: int, n: int) -> float:
    """(agreements - disagreements) / n, correctly rounded: the mean of the
    n exact +-1 products."""
    return (2 * agree - n) / n


def chsh_statistic(table: CorrelationTable):
    """S = E11 - E12 + E21 + E22. Exact when the table is exact."""
    return table.e11 - table.e12 + table.e21 + table.e22


def empirical_table(counts: RunCounts) -> CorrelationTable:
    return CorrelationTable(
        *(_correlation(counts.agree[p], counts.n_per_series) for p in SETTING_PAIRS)
    )


def chsh_report(counts: RunCounts) -> ChshReport:
    """Correlations, S*, the Hoeffding half-width and the violation test
    of a run, from its counts. The bound is decided in integers, as
    S* = 2 (a11 - a12 + a21 + a22 - n) / n for agreement counts a."""
    table = empirical_table(counts)
    s = chsh_statistic(table)
    n, agree = counts.n_per_series, counts.agree
    p = violation_p_value(s, n)
    return ChshReport(
        table=table,
        s_star=s,
        bound_satisfied=abs(agree[1, 1] - agree[1, 2] + agree[2, 1] + agree[2, 2] - n) <= n,
        n_per_series=n,
        hoeffding_epsilon=hoeffding_epsilon(n),
        violation_p_value=p,
        violation_significant=p <= VIOLATION_DELTA,
    )


def class_frequencies(counts: RunCounts, model: LhvModel | None = None) -> ClassFrequencies:
    """Relative frequency of each behavior class, separately for each
    setting pair, from a run's class counts (a trial log's too)."""
    # model is unread; the benchmark still passes it, and ROADMAP item 2 drops it
    if counts.classes is None:
        raise ValueError("class analysis needs class counts, which a quantum run does not have")
    n = counts.n_per_series
    # RunCounts checked the counts: nonnegative, n per pair. object.__new__
    # skips ClassFrequencies' re-validation of the quotients.
    freqs = object.__new__(ClassFrequencies)
    object.__setattr__(freqs, "per_pair", {
        pair: {ALL_BEHAVIORS[c]: k / n for c, k in enumerate(counts.classes[pair]) if k > 0}
        for pair in SETTING_PAIRS
    })
    return freqs


def _compiled(model: LhvModel) -> tuple[dict[tuple[int, int], tuple[int, ...]], int]:
    if model.class_distribution is None:
        raise ValueError(f"model {model.name!r} does not declare an exact tag distribution")
    return model.class_distribution


def exact_class_weights(
    model: LhvModel, pair: tuple[int, int] = (1, 1)
) -> dict[Behavior, Fraction]:
    """Exact behavior-class weights for one setting pair: a view of the
    model's compiled ``class_distribution``, classes of weight 0 left out."""
    nums, d = _compiled(model)
    return {ALL_BEHAVIORS[c]: Fraction(n, d) for c, n in enumerate(nums[pair]) if n}


def exact_mi_holds(model: LhvModel) -> bool:
    """Whether the four setting pairs' declared class weights are equal,
    decided on the compiled integer numerators over their one denominator."""
    nums, _ = _compiled(model)
    return len(set(nums.values())) == 1


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
    return CorrelationTable(*(
        sum(w * signs[beh.code] for beh, w in weights.items()) for signs in CLASS_SIGNS.values()
    ))


#: C = A1*B1 - A1*B2 + A2*B1 + A2*B2 per class code: the CHSH statistic of
#: the class's table of +-1 products. Always -2 or +2, since it factors as
#: A1*(B1 - B2) + A2*(B1 + B2) and exactly one parenthesis is nonzero.
_CLASS_CHSH = tuple(p11 - p12 + p21 + p22 for p11, p12, p21, p22 in zip(*CLASS_SIGNS.values()))


def theoretical_chsh(weights: Mapping[Behavior, Any]) -> tuple[Any, dict[Behavior, int]]:
    """Exact CHSH value of a single class-weight distribution.

    Returns (s, per-class C values). Because every C is -2 or +2 and the
    weights form a probability distribution, |s| <= 2 always; the bound
    is re-checked here and a failure raises BoundViolationError.
    """
    validate_weights(weights)
    per_class = {beh: _CLASS_CHSH[beh.code] for beh in weights}
    if bad := set(per_class.values()) - {-2, 2}:
        raise BoundViolationError(f"per-class CHSH value {min(bad)} outside {{-2, +2}}")
    s = sum(w * per_class[beh] for beh, w in weights.items())
    if not within(abs(s), 2, VERDICT_SLACK):
        raise BoundViolationError(f"single-distribution CHSH value {s} exceeds 2")
    return s, per_class


def mi_diagnostic(freqs: ClassFrequencies, tolerance: float) -> MiDiagnostic:
    """Compare each pair's class frequencies against pair (1,1).

    Measurement independence predicts identical distributions; the
    diagnostic reports the largest |p(class | pair) - p(class | (1,1))|
    and whether it stays within tolerance. Ties go to the first maximum:
    in ``SETTING_PAIRS`` order, then in the iteration order of
    ``set(reference) | set(current)`` (dice-coin's two classes tie at
    every power-of-two n). ROADMAP item 7 replaces this diagnostic.
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
    """Exact E(a_i, b_k) where each pair uses its own tag distribution:
    (2 * agree - d) / d on its compiled numerators, as ``run`` reads counts.

    For a model honouring measurement independence this equals
    theoretical_correlations of any single pair's weights; for a
    conspiring sampler the four entries come from four different
    distributions and no single-distribution bound applies.
    """
    nums, d = _compiled(model)
    return CorrelationTable(*(
        Fraction(2 * sum(compress(nums[pair], _AGREEING[pair])) - d, d) for pair in SETTING_PAIRS
    ))
