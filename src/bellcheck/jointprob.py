"""Joint-probability existence over the 16 behavior classes.

A joint probability here is a single distribution over the behavior
quadruples that reproduces all four pairwise correlations and all four
marginals at once. By Fine's theorem (PRL 48, 291, 1982) one exists
exactly when every pair table is valid (checked when the statistics are
built) and no CHSH facet value exceeds 2, so ``jp_feasible`` and
``chsh_criterion`` decide from the same eight facet values; the largest,
the statistics' own ``Facet``, is an infeasible verdict's certificate. A
feasible input gets Fine's joint distribution in closed form (Halliwell,
Phys. Lett. A 378, 2945, 2014), built in integer arithmetic over one common
denominator. Rational inputs stay exact: ``BehaviorStatistics`` scales them
at construction to integer numerators over their lcm, which every exact
check reads. Float inputs pass the facet test within ``core.VERDICT_SLACK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from .core import (
    ALL_BEHAVIORS,
    CLASS_SIGNS,
    DOMAIN_SLACK,
    SETTING_PAIRS,
    VERDICT_SLACK,
    Behavior,
    CorrelationTable,
    LhvModel,
    _check_unit_interval,
    _over_lcm,
    is_exact,
    within,
)
from .engine import exact_class_weights, validate_weights
# jp_feasible does not call the simplex; the name stays only for perfbench's tracer.
from .simplex import solve_equality_feasibility  # noqa: F401

# The eight moments' rows, (e11, e12, e21, e22, m_a1, m_a2, m_b1, m_b2), each
# class's value indexed by code; the statistics map adds normalization.
_ROWS = (*CLASS_SIGNS.values(), *zip(*(beh.outcomes() for beh in ALL_BEHAVIORS)))
STATS_MATRIX: list[list[int]] = [list(row) for row in _ROWS] + [[1] * 16]


# Sign tables for Fine's theorem, built once: the eight facets' signs on (e11,
# e12, e21, e22) in _max_facet's order; per pair cell in _pair_cells order, (e,
# m_a, m_b indices into the statistics, A, B); (A, B1, B2) and A*B1*B2 in
# _triple_cells order; the four (B1, B2); per class in code order, its (A1,
# B1, B2) and (A2, B1, B2) indices in _TRIPLES and its (B1, B2) index.
_FACETS = tuple(tuple(sign * (-1) ** (i == j) for i in range(4)) for j in range(4) for sign in (1, -1))
_PAIR_CELLS = tuple((j, i + 3, k + 5, alpha, beta) for j, (i, k) in enumerate(SETTING_PAIRS)
                    for alpha in (-1, 1) for beta in (-1, 1))
_TRIPLES = tuple((a, b1, b2) for a in (-1, 1) for b1 in (-1, 1) for b2 in (-1, 1))
_PARITY = tuple(a * b1 * b2 for a, b1, b2 in _TRIPLES)
_B_PAIRS = tuple((b1, b2) for b1 in (-1, 1) for b2 in (-1, 1))
_GLUE = tuple((_TRIPLES.index((b.a1, b.b1, b.b2)), _TRIPLES.index((b.a2, b.b1, b.b2)),
               _B_PAIRS.index((b.b1, b.b2))) for b in ALL_BEHAVIORS)


def _pair_cells(values, one=1):
    """Each pair table's four cells, times 4: one + A*m_a + B*m_b + A*B*E
    for setting pair (i, k) and outcomes (A, B), in SETTING_PAIRS order.
    ``values`` is (e11, e12, e21, e22, m_a1, m_a2, m_b1, m_b2); ``one`` is
    the common denominator of statistics given as integer numerators."""
    for e, a, b, alpha, beta in _PAIR_CELLS:
        yield SETTING_PAIRS[e], alpha, beta, one + alpha * values[a] + beta * values[b] + alpha * beta * values[e]


class Facet(NamedTuple):
    """A CHSH facet expression: the signs applied to (e11, e12, e21, e22) and
    the value they reach; above 2, it certifies that no joint probability exists."""

    signs: tuple[int, int, int, int]
    value: Any


@dataclass(frozen=True)
class BehaviorStatistics:
    """Four correlations plus the four single-party means.

    Construction checks that every setting pair admits a valid 4-cell
    outcome table: (1 + A*m_a + B*m_b + A*B*E) / 4 must be nonnegative
    for all sign choices. Statistics violating that cannot come from any
    experiment, CHSH or otherwise. Exact statistics are checked and kept as
    ``scaled``: (numerators over their lcm d, in ``_pair_cells`` order; d).
    ``facet`` is the ``Facet`` of ``_max_facet`` of the correlations (top/d
    when exact), computed here from the same numbers.
    """

    correlations: CorrelationTable
    m_a1: Any = 0
    m_a2: Any = 0
    m_b1: Any = 0
    m_b2: Any = 0
    scaled: tuple[tuple[int, ...], int] | None = field(default=None, init=False, repr=False, compare=False)
    facet: Facet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, v in zip(("m_a1", "m_a2", "m_b1", "m_b2"), self.marginals()):
            _check_unit_interval(name, v)
        values = self.correlations.as_tuple() + self.marginals()
        if all(map(is_exact, values)):
            object.__setattr__(self, "scaled", _over_lcm(values))
        nums, d = self.scaled or (values, None)
        signs, top = _max_facet(nums[:4])
        object.__setattr__(self, "facet", Facet(signs, top if d is None else Fraction(top, d)))
        for j, (_, _, _, cell) in enumerate(_pair_cells(nums, d or 1)):
            if cell < 0 if d else not within(-cell, 0, DOMAIN_SLACK):
                # the weight printed in the given values' own arithmetic
                (i, k), alpha, beta, cell = list(_pair_cells(values))[j]
                raise ValueError(
                    f"pair ({i},{k}) admits no outcome table: cell "
                    f"({alpha:+d},{beta:+d}) has weight {cell / 4} < 0"
                )

    def marginals(self) -> tuple:
        return (self.m_a1, self.m_a2, self.m_b1, self.m_b2)


@dataclass(frozen=True)
class JointProbability:
    """A distribution over the 16 behavior classes, kept read-only as validated."""

    weights: Mapping[Behavior, Any]

    def __post_init__(self):
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        validate_weights(self.weights)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: JointProbability | None
    certificate: Facet | None


def jp_from_lhv(model: LhvModel) -> JointProbability:
    """The joint probability an LHV model induces: exactly its class-weight
    distribution, the model's declared tag distribution at pair (1,1)."""
    return JointProbability(weights=exact_class_weights(model, (1, 1)))


def statistics_of(jp: JointProbability) -> BehaviorStatistics:
    """Marginalize a joint probability down to correlations and means. Its
    weights were validated when it was built."""
    e11, e12, e21, e22, *ms = (sum(w * row[b.code] for b, w in jp.weights.items()) for row in _ROWS)
    return BehaviorStatistics(CorrelationTable(e11, e12, e21, e22), *ms)


def _max_facet(es) -> tuple[tuple[int, int, int, int], Any]:
    """The largest of the eight CHSH facet values of (e11, e12, e21, e22)
    and the signs that reach it. Negating term j gives S - 2*e_j, where S
    is the plain sum; the candidates run over j = 0..3, each with the +
    sign before the - sign (``_FACETS`` order), and the first maximum wins."""
    total = sum(es)
    values = [v for e in es for v in (total - 2 * e, -(total - 2 * e))]
    top = max(values)
    return _FACETS[values.index(top)], top


def chsh_criterion(table: CorrelationTable) -> tuple[bool, Any]:
    """Evaluate all eight CHSH facets; pass means none exceeds 2."""
    _, value = _max_facet(table.as_tuple())
    return within(value, 2, VERDICT_SLACK), value


def _scaled_floats(stats: BehaviorStatistics) -> tuple[list[int], int]:
    """Float statistics that pass the facet test as integer numerators over
    one denominator s: (numerators, s), as ``scaled``. They are taken at their
    exact binary values; within tolerance they can sit just outside the
    local polytope, so they are mixed with the uniform distribution (all
    statistics 0) by the largest weight lambda = p/q <= 1 that makes every
    pair cell lambda*(cell - 1) + 1 nonnegative and the largest facet
    value lambda*F at most 2. The mix is a change of scale: numerators times p
    over the denominator times q."""
    ratios = [float(v).as_integer_ratio() for v in stats.correlations.as_tuple() + stats.marginals()]
    d = math.lcm(*(den for _, den in ratios))
    nums = [num * (d // den) for num, den in ratios]
    total = sum(nums[:4])
    top = max(abs(total - 2 * e) for e in nums[:4])
    # the least bound, the first of equal ones: the facet's 2d/top, then d/-x per cell d + x < 0
    p, q = (2 * d, top) if top > 2 * d else (1, 1)
    for e, a, b, alpha, beta in _PAIR_CELLS:
        x = alpha * nums[a] + beta * nums[b] + alpha * beta * nums[e]
        if x < -d and d * q < p * -x:
            p, q = d, -x
    return [p * v for v in nums], q * d


def _triple_cells(s: int, m_a: int, m_b1: int, m_b2: int, e1: int, e2: int, c: int) -> list[int]:
    """8s times a distribution of (A, B1, B2), in ``_TRIPLES`` order, with the
    given means, E(A*B1) = e1/s, E(A*B2) = e2/s, E(B1*B2) = c/s and the
    third moment E(A*B1*B2) at its least feasible value."""
    cells = [s + a * m_a + b1 * m_b1 + b2 * m_b2 + a * (b1 * e1 + b2 * e2) + b1 * b2 * c
             for a, b1, b2 in _TRIPLES]
    t = max(-n for n, parity in zip(cells, _PARITY) if parity == 1)
    return [n + parity * t for n, parity in zip(cells, _PARITY)]


def _fine_witness(nums: list[int], s: int):
    """Fine's joint distribution for statistics nums/s (e11, e12, e21, e22,
    m_a1, m_a2, m_b1, m_b2) inside the local polytope, as (behavior,
    numerator, denominator) for each class of nonzero weight.

    Fourier-Motzkin elimination of the third moment leaves the triple
    (A_i, B1, B2) an interval for c = E(B1*B2): from -1 + max(|e_i1 + e_i2|,
    |m_b1 + m_b2|) to 1 - max(|e_i1 - e_i2|, |m_b1 - m_b2|). With valid
    pair tables, the two triples' intervals meet exactly when the CHSH
    facets hold, and c is the least value they share. Gluing the triples along their common
    (B1, B2) table gives P(a1, a2, b1, b2) = P1(a1, b1, b2) P2(a2, b1, b2)
    / P(b1, b2), where a zero P(b1, b2) leaves both factors zero."""
    e11, e12, e21, e22, m_a1, m_a2, m_b1, m_b2 = nums
    c = max(abs(e11 + e12), abs(e21 + e22), abs(m_b1 + m_b2)) - s
    first = _triple_cells(s, m_a1, m_b1, m_b2, e11, e12, c)
    second = _triple_cells(s, m_a2, m_b1, m_b2, e21, e22, c)
    # per (B1, B2): 64 s^2 P(b1, b2), the glue's denominator
    glue = [16 * s * (s + b1 * m_b1 + b2 * m_b2 + b1 * b2 * c) for b1, b2 in _B_PAIRS]
    for beh, (i, j, g) in zip(ALL_BEHAVIORS, _GLUE):
        n = first[i] * second[j]
        if n:
            yield beh, n, glue[g]


def jp_feasible(stats: BehaviorStatistics) -> FeasibilityResult:
    """Decide whether any joint probability reproduces the statistics.

    The verdict is the facet test of ``chsh_criterion``, on the facet
    computed when the statistics were built. An infeasible verdict carries
    that ``stats.facet``, whose value exceeds 2; a feasible one carries Fine's
    joint distribution as its witness. The witness meets the nine equality
    constraints (eight stats plus normalization) exactly for exact inputs
    and within about VERDICT_SLACK for float inputs."""
    if not within(stats.facet.value, 2, VERDICT_SLACK):
        return FeasibilityResult(False, None, stats.facet)
    if stats.scaled is None:
        weights = {beh: n / d for beh, n, d in _fine_witness(*_scaled_floats(stats))}
    else:
        weights = {beh: Fraction(n, d) for beh, n, d in _fine_witness(*stats.scaled)}
    return FeasibilityResult(True, JointProbability(weights), None)
