#!/usr/bin/env python3
"""The four-party parity constraints and their breaking point.

At angle step phi = pi/2 the four perfect-correlation constraints
(every row has angle sum 0, forcing the product ABCD = -1) are jointly
satisfiable by deterministic response values. Appending the one extra
constraint with angle sum pi (forcing +1) makes the system
unsatisfiable: elimination over GF(2) reduces the parity equations to
0 = 1, which rules out all 256 assignments. No distribution over hidden variables is involved at any
point; this is pure logic.
"""

import math

from bellcheck import check_satisfiable, ghz_constraint_system, ghz_correlation
from bellcheck.ghz import evaluate_constraint

print("correlation function at a few angle sums:")
for label, (a, b, c, d) in [
    ("a+b-c-d = 0  ", (0.3, 0.4, 0.5, 0.2)),
    ("a+b-c-d = pi ", (math.pi, 0.0, 0.0, 0.0)),
    ("a+b-c-d = pi/2", (math.pi / 2, 0.0, 0.0, 0.0)),
]:
    print(f"  {label}: <ABCD> = {ghz_correlation(a, b, c, d):+.3f}")

phi = math.pi / 2
four = ghz_constraint_system(phi)
print(f"\nfour-constraint system at phi = pi/2 (targets all -1):")
for c in four:
    parts = " * ".join(f"{p}({a:.4g})" for p, a in c.factors)
    print(f"  {parts} = {c.target:+d}")

result = check_satisfiable(four)
print(f"satisfiable: {result.satisfiable} "
      f"({result.assignments_checked} assignments of 8 variables)")
print("lowest-index witness:")
for (party, angle), value in sorted(result.witness.items()):
    print(f"  {party}({angle:.4g}) = {value:+d}")
for c in four:
    assert evaluate_constraint(c, result.witness) == c.target

five = ghz_constraint_system(phi, include_fifth=True)
extra = five[4]
parts = " * ".join(f"{p}({a:.4g})" for p, a in extra.factors)
print(f"\nappending the angle-sum-pi constraint: {parts} = {extra.target:+d}")
result5 = check_satisfiable(five)
print(f"satisfiable: {result5.satisfiable} "
      f"(none of the {result5.assignments_checked} assignments works)")

print("\nwhy: multiply constraints 2, 3 and 4. Squared factors drop out,")
print("leaving A(pi)*B(0)*C(0)*D(0) = (-1)^3 = -1, but the fifth demands +1.")
