#!/usr/bin/env python3
"""Why |S| never exceeds 2 for a single class distribution.

Each of the 16 behavior classes has a fixed CHSH combination
C = A1*B1 - A1*B2 + A2*B1 + A2*B2 that factors as
A1*(B1 - B2) + A2*(B1 + B2); exactly one parenthesis is nonzero, so C is
always -2 or +2, and a probability mixture of values in {-2, +2} cannot
leave [-2, 2]. The sweep below checks the bound on a hundred thousand
random exact-rational distributions.
"""

import random
from fractions import Fraction

from bellcheck import ALL_BEHAVIORS, theoretical_chsh

print("the sixteen classes and their C values:")
print(f"{'class':>8} {'A1':>3} {'A2':>3} {'B1':>3} {'B2':>3} {'C':>4}")
for beh in ALL_BEHAVIORS:
    _, per_class = theoretical_chsh({beh: Fraction(1)})
    print(f"{beh.compact():>8} {beh.a1:>3} {beh.a2:>3} {beh.b1:>3} {beh.b2:>3} {per_class[beh]:>+4}")

rng = random.Random(0)
trials = 100_000
worst = Fraction(0)
print(f"\nsweeping {trials} random rational weight vectors ...")
for _ in range(trials):
    nums = [rng.randint(0, 9) for _ in range(16)]
    total = sum(nums) or 1
    weights = {b: Fraction(n, total) for b, n in zip(ALL_BEHAVIORS, nums) if n}
    if not weights:
        continue
    s, _ = theoretical_chsh(weights)  # every class's C is +-2, so |s| <= 2
    worst = max(worst, abs(s))
print(f"largest |S| seen: {worst} = {float(worst):.6f}  (bound: 2)")

point = {ALL_BEHAVIORS[15]: Fraction(1)}  # the all +1 class
s, _ = theoretical_chsh(point)
print(f"a point mass attains the bound: S = {s} for class {ALL_BEHAVIORS[15].compact()}")
