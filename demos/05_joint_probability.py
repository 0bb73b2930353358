#!/usr/bin/env python3
"""Joint-probability existence, decided two independent ways.

A single distribution over the 16 behavior classes reproduces given
correlations and marginals if and only if every CHSH facet expression
stays within 2 (Fine's theorem). ``jp_feasible`` decides by the eight
facets and builds Fine's joint distribution as the witness; the
independent route below runs the exact simplex on the linear
feasibility problem over the 16 class vertices. The
dice-coin statistics make the classic counterexample: the two settings
per station are mutually exclusive to measure, yet a joint distribution
over all four outcomes exists anyway.
"""

import random
from fractions import Fraction

from bellcheck import (
    BehaviorStatistics,
    CorrelationTable,
    chsh_criterion,
    dice_coin_model,
    jp_feasible,
    jp_from_lhv,
    statistics_of,
)
from bellcheck.jointprob import STATS_MATRIX
from bellcheck.simplex import solve_equality_feasibility

print("dice-coin: incompatible measurements, existing joint distribution")
stats = statistics_of(jp_from_lhv(dice_coin_model()))
print(f"  correlations {tuple(str(e) for e in stats.correlations.as_tuple())}, "
      f"marginals {tuple(str(m) for m in stats.marginals())}")
result = jp_feasible(stats)
print(f"  feasible: {result.feasible}; witness:")
for beh, w in sorted(result.witness.weights.items(), key=lambda kv: kv[0].code):
    print(f"    P({beh.compact()}) = {w}")

print("\nthe PR box: marginally no-signaling, still outside the polytope")
pr = BehaviorStatistics(CorrelationTable(Fraction(1), Fraction(1), Fraction(1), Fraction(-1)))
result = jp_feasible(pr)
print(f"  feasible: {result.feasible}")
facet = result.certificate
terms = " ".join(f"{s:+d}*E{ik}" for s, ik in zip(facet.signs, ("11", "12", "21", "22")))
print(f"  violated facet: {terms} = {facet.value} > 2")

print("\nrandom zero-marginal statistics: solver vs facet arithmetic")
rng = random.Random(1)
agree = feasible_count = 0
trials = 2000
for _ in range(trials):
    es = [Fraction(rng.randint(-64, 64), 64) for _ in range(4)]
    lp, _ = solve_equality_feasibility(STATS_MATRIX, es + [0, 0, 0, 0, 1])
    facets_pass, _ = chsh_criterion(CorrelationTable(*es))
    agree += lp == facets_pass
    feasible_count += lp
print(f"  {trials} samples: {feasible_count} feasible, "
      f"{agree}/{trials} decisions agree between the two routes")
assert agree == trials
