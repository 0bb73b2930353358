"""Joint-probability existence over the 16 behavior classes.

A joint probability here is a single distribution over the behavior
quadruples that reproduces all four pairwise correlations and all four
marginals at once. By Fine's theorem (PRL 48, 291, 1982) one exists
exactly when every pair table is valid (checked when the statistics are
built) and no CHSH facet value exceeds 2, so ``jp_feasible`` and
``chsh_criterion`` decide from the same eight facet values. A feasible
input gets Fine's joint distribution in closed form (Halliwell, Phys.
Lett. A 378, 2945, 2014), built in integer arithmetic over one common
denominator. Rational inputs stay exact; float inputs pass the facet test
within ``core.VERDICT_SLACK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Mapping

from .core import (
    ALL_BEHAVIORS,
    DOMAIN_SLACK,
    SETTING_PAIRS,
    VERDICT_SLACK,
    Behavior,
    CorrelationTable,
    LhvModel,
    _check_unit_interval,
    within,
)
from .engine import exact_class_weights, theoretical_correlations, validate_weights
# jp_feasible does not call the simplex; the name stays only for perfbench's tracer.
from .simplex import solve_equality_feasibility  # noqa: F401

# Statistics map: rows are the four correlations, the four marginals and
# normalization; columns follow ALL_BEHAVIORS (code order).
_CORR_ROWS = [
    [beh.alice(i) * beh.bob(k) for beh in ALL_BEHAVIORS] for i, k in SETTING_PAIRS
]
_MARGINAL_ROWS = [
    [beh.a1 for beh in ALL_BEHAVIORS],
    [beh.a2 for beh in ALL_BEHAVIORS],
    [beh.b1 for beh in ALL_BEHAVIORS],
    [beh.b2 for beh in ALL_BEHAVIORS],
]
STATS_MATRIX: list[list[int]] = _CORR_ROWS + _MARGINAL_ROWS + [[1] * 16]


def _pair_cells(es, ms, one=1):
    """Each pair table's four cells, times 4: one + A*m_a + B*m_b + A*B*E
    for setting pair (i, k) and outcomes (A, B), in SETTING_PAIRS order.
    ``ms`` is (m_a1, m_a2, m_b1, m_b2); ``one`` is the common denominator
    of statistics given as integer numerators."""
    for (i, k), e in zip(SETTING_PAIRS, es):
        m_a, m_b = ms[i - 1], ms[k + 1]
        for alpha in (-1, 1):
            for beta in (-1, 1):
                yield (i, k), alpha, beta, one + alpha * m_a + beta * m_b + alpha * beta * e


@dataclass(frozen=True)
class BehaviorStatistics:
    """Four correlations plus the four single-party means.

    Construction checks that every setting pair admits a valid 4-cell
    outcome table: (1 + A*m_a + B*m_b + A*B*E) / 4 must be nonnegative
    for all sign choices. Statistics violating that cannot come from any
    experiment, CHSH or otherwise.
    """

    correlations: CorrelationTable
    m_a1: Any = 0
    m_a2: Any = 0
    m_b1: Any = 0
    m_b2: Any = 0

    def __post_init__(self):
        for name, v in zip(("m_a1", "m_a2", "m_b1", "m_b2"), self.marginals()):
            _check_unit_interval(name, v)
        for (i, k), alpha, beta, cell in _pair_cells(
            self.correlations.as_tuple(), self.marginals()
        ):
            if not within(-cell, 0, DOMAIN_SLACK):
                raise ValueError(
                    f"pair ({i},{k}) admits no outcome table: cell "
                    f"({alpha:+d},{beta:+d}) has weight {cell / 4} < 0"
                )

    def marginals(self) -> tuple:
        return (self.m_a1, self.m_a2, self.m_b1, self.m_b2)

    @property
    def is_exact(self) -> bool:
        return self.correlations.is_exact and all(
            isinstance(v, Rational) for v in self.marginals()
        )


@dataclass(frozen=True)
class JointProbability:
    """A distribution over the 16 behavior classes."""

    weights: Mapping[Behavior, Any]

    def __post_init__(self):
        validate_weights(self.weights)


@dataclass(frozen=True)
class ViolatedFacet:
    """A CHSH facet expression whose value exceeds 2: the signs applied
    to (e11, e12, e21, e22) and the value reached."""

    signs: tuple[int, int, int, int]
    value: Any


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: JointProbability | None
    certificate: ViolatedFacet | None


def jp_from_lhv(
    model: LhvModel, class_weights: Mapping[Behavior, Any] | None = None
) -> JointProbability:
    """The joint probability an LHV model induces: exactly its class-
    weight distribution. With no explicit weights, the model's declared
    tag distribution (at pair (1,1)) is enumerated."""
    if class_weights is None:
        class_weights = exact_class_weights(model, (1, 1))
    return JointProbability(weights=dict(class_weights))


def statistics_of(jp: JointProbability) -> BehaviorStatistics:
    """Marginalize a joint probability down to correlations and means."""
    ms = [sum(w * row[b.code] for b, w in jp.weights.items()) for row in _MARGINAL_ROWS]
    return BehaviorStatistics(theoretical_correlations(jp.weights), *ms)


def _max_facet(es) -> tuple[tuple[int, int, int, int], Any]:
    """The largest of the eight CHSH facet values of (e11, e12, e21, e22)
    and the signs that reach it. Negating term j gives S - 2*e_j, where S
    is the plain sum; the candidates run over j = 0..3, each with the +
    sign before the - sign, and the first maximum wins."""
    total = sum(es)
    best = None
    for j, e in enumerate(es):
        value = total - 2 * e
        signs = tuple(-1 if i == j else 1 for i in range(4))
        for candidate in ((signs, value), (tuple(-s for s in signs), -value)):
            if best is None or candidate[1] > best[1]:
                best = candidate
    return best


def chsh_criterion(table: CorrelationTable) -> tuple[bool, Any]:
    """Evaluate all eight CHSH facets; pass means none exceeds 2."""
    _, value = _max_facet(table.as_tuple())
    return within(value, 2, VERDICT_SLACK), value


def _scaled_statistics(stats: BehaviorStatistics) -> tuple[int, list[int], list[int]]:
    """The statistics as integer numerators over one denominator s:
    (s, correlations, marginals), for statistics that pass the facet test.
    Exact ones are inside the local polytope already. Float ones are taken
    at their exact binary values; within tolerance they can sit just
    outside it, so they are mixed with the uniform distribution (all
    statistics 0) by the largest weight lambda = p/q <= 1 that makes every
    pair cell lambda*(cell - 1) + 1 nonnegative and the largest facet
    value lambda*F at most 2. The mix is a change of scale: numerators times p
    over the denominator times q."""
    convert = Fraction if stats.is_exact else float
    ratios = [convert(v).as_integer_ratio() for v in stats.correlations.as_tuple() + stats.marginals()]
    d = math.lcm(*(den for _, den in ratios))
    nums = [num * (d // den) for num, den in ratios]
    es, ms = nums[:4], nums[4:]
    _, top = _max_facet(es)
    bounds = [(2 * d, top)] if top > 2 * d else []
    bounds += [(d, d - cell) for *_, cell in _pair_cells(es, ms, d) if cell < 0]
    p = q = 1
    for num, den in bounds:
        if num * q < p * den:
            p, q = num, den
    return q * d, [p * v for v in es], [p * v for v in ms]


def _triple_cells(s: int, m_a: int, m_b1: int, m_b2: int, e1: int, e2: int, c: int) -> dict:
    """8s times a distribution of (A, B1, B2), keyed by outcome, with the
    given means, E(A*B1) = e1/s, E(A*B2) = e2/s, E(B1*B2) = c/s and the
    third moment E(A*B1*B2) at its least feasible value."""
    cells = {
        (a, b1, b2): s + a * m_a + b1 * m_b1 + b2 * m_b2 + a * (b1 * e1 + b2 * e2) + b1 * b2 * c
        for a in (-1, 1)
        for b1 in (-1, 1)
        for b2 in (-1, 1)
    }
    t = max(-n for (a, b1, b2), n in cells.items() if a * b1 * b2 == 1)
    return {(a, b1, b2): n + a * b1 * b2 * t for (a, b1, b2), n in cells.items()}


def _fine_witness(s: int, es: list[int], ms: list[int]):
    """Fine's joint distribution for statistics es/s, ms/s inside the local
    polytope, as (behavior, numerator, denominator) for each class of
    nonzero weight.

    Fourier-Motzkin elimination of the third moment leaves the triple
    (A_i, B1, B2) an interval for c = E(B1*B2): from -1 + max(|e_i1 + e_i2|,
    |m_b1 + m_b2|) to 1 - max(|e_i1 - e_i2|, |m_b1 - m_b2|). With valid
    pair tables, the two triples' intervals meet exactly when the CHSH
    facets hold, and c is the least value they share. Gluing the triples along their common
    (B1, B2) table gives P(a1, a2, b1, b2) = P1(a1, b1, b2) P2(a2, b1, b2)
    / P(b1, b2), where a zero P(b1, b2) leaves both factors zero."""
    e11, e12, e21, e22 = es
    m_a1, m_a2, m_b1, m_b2 = ms
    c = max(abs(e11 + e12), abs(e21 + e22), abs(m_b1 + m_b2)) - s
    first = _triple_cells(s, m_a1, m_b1, m_b2, e11, e12, c)
    second = _triple_cells(s, m_a2, m_b1, m_b2, e21, e22, c)
    for beh in ALL_BEHAVIORS:
        b1, b2 = beh.b1, beh.b2
        n = first[beh.a1, b1, b2] * second[beh.a2, b1, b2]
        if n:
            yield beh, n, 16 * s * (s + b1 * m_b1 + b2 * m_b2 + b1 * b2 * c)


def jp_feasible(stats: BehaviorStatistics) -> FeasibilityResult:
    """Decide whether any joint probability reproduces the statistics.

    The verdict is the facet test of ``chsh_criterion``. An infeasible
    verdict carries the largest facet value, which exceeds 2; a feasible
    one carries Fine's joint distribution as its witness. The witness
    meets the nine equality constraints (eight stats plus normalization)
    exactly for exact inputs and within about VERDICT_SLACK for float
    inputs."""
    signs, value = _max_facet(stats.correlations.as_tuple())
    if not within(value, 2, VERDICT_SLACK):
        return FeasibilityResult(False, None, ViolatedFacet(signs=signs, value=value))
    exact = stats.is_exact
    weights = {
        beh: Fraction(n, d) if exact else n / d
        for beh, n, d in _fine_witness(*_scaled_statistics(stats))
    }
    return FeasibilityResult(True, JointProbability(weights), None)
