"""Joint-probability existence over the 16 behavior classes.

A joint probability here is a single distribution over the behavior
quadruples that reproduces all four pairwise correlations and all four
marginals at once. By Fine's theorem (PRL 48, 291, 1982) one exists
exactly when every pair table is valid (checked when the statistics are
built) and no CHSH facet value exceeds 2, so ``jp_feasible`` and
``chsh_criterion`` decide from the same eight facet values. A feasible
input gets its witness from the exact simplex over the class vertices.
Rational inputs stay exact; float inputs pass the facet test within
``core.VERDICT_SLACK``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Mapping

import numpy as np

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
from .simplex import solve_equality_feasibility

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


def _pair_cells(es, ms):
    """Each pair table's four cells, times 4: 1 + A*m_a + B*m_b + A*B*E
    for setting pair (i, k) and outcomes (A, B), in SETTING_PAIRS order.
    ``ms`` is (m_a1, m_a2, m_b1, m_b2)."""
    for (i, k), e in zip(SETTING_PAIRS, es):
        m_a, m_b = ms[i - 1], ms[k + 1]
        for alpha in (-1, 1):
            for beta in (-1, 1):
                yield (i, k), alpha, beta, 1 + alpha * m_a + beta * m_b + alpha * beta * e


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
                    f"({alpha:+d},{beta:+d}) has weight {cell}/4 < 0"
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

    def weight(self, beh: Behavior):
        return self.weights.get(beh, 0)

    def as_array(self) -> np.ndarray:
        return np.array([float(self.weight(b)) for b in ALL_BEHAVIORS])

    @property
    def is_exact(self) -> bool:
        return all(isinstance(w, Rational) for w in self.weights.values())


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


def _exact_rhs(stats: BehaviorStatistics) -> list[Fraction | int]:
    """The STATS_MATRIX right-hand side, exactly, for statistics that pass
    the facet test. Exact ones are inside the local polytope already.
    Float ones within tolerance can sit just outside it, so they are mixed
    with the uniform distribution (all statistics 0) by the least t >= 0
    that makes every cell (1 - t)*c + t nonnegative and the largest facet
    value (1 - t)*F at most 2."""
    if stats.is_exact:
        return [Fraction(v) for v in stats.correlations.as_tuple() + stats.marginals()] + [1]
    es = [Fraction(float(v)) for v in stats.correlations.as_tuple()]
    ms = [Fraction(float(v)) for v in stats.marginals()]
    _, top = _max_facet(es)
    t = 1 - 2 / top if top > 2 else Fraction(0)
    for *_, cell in _pair_cells(es, ms):
        if cell < 0:
            t = max(t, cell / (cell - 1))
    return [(1 - t) * v for v in es + ms] + [1]


def jp_feasible(stats: BehaviorStatistics) -> FeasibilityResult:
    """Decide whether any joint probability reproduces the statistics.

    The verdict is the facet test of ``chsh_criterion``. An infeasible
    verdict carries the largest facet value, which exceeds 2; a feasible
    one carries a witness solving the nine equality constraints (eight
    stats plus normalization), exact for exact inputs and within about
    VERDICT_SLACK for float inputs."""
    signs, value = _max_facet(stats.correlations.as_tuple())
    if not within(value, 2, VERDICT_SLACK):
        return FeasibilityResult(False, None, ViolatedFacet(signs=signs, value=value))
    feasible, x = solve_equality_feasibility(STATS_MATRIX, _exact_rhs(stats))
    if not feasible:
        raise RuntimeError("facet test passed but the simplex found no joint probability")
    weights = {
        b: w if stats.is_exact else float(w) for b, w in zip(ALL_BEHAVIORS, x) if w != 0
    }
    return FeasibilityResult(True, JointProbability(weights), None)
