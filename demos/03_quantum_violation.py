#!/usr/bin/env python3
"""Singlet statistics against the best a hidden-variable model can do.

E(a, b) = -cos(a - b) gives S = -2*sqrt(2) at the optimal angles. The
sign-of-cosine model is a genuine LHV model over the same angles; its S
pins to the boundary at -2 and can go no further. Sampling both shows
the violation is not a small-N artifact.
"""

import math

from bellcheck import (
    TSIRELSON_ANGLES,
    chsh_report,
    chsh_statistic,
    cosine_sign_model,
    count_experiment,
    count_quantum_experiment,
    exact_correlation_table,
    quantum_chsh,
    quantum_correlation_table,
)

N = 500_000
SEED = 7

print(f"optimal angles: a1={TSIRELSON_ANGLES.a1:.4f} a2={TSIRELSON_ANGLES.a2:.4f} "
      f"b1={TSIRELSON_ANGLES.b1:.4f} b2={TSIRELSON_ANGLES.b2:.4f}")
table = quantum_correlation_table(TSIRELSON_ANGLES)
print(f"singlet correlations: {tuple(round(e, 6) for e in table.as_tuple())}")
print(f"exact S_qm = {quantum_chsh(TSIRELSON_ANGLES):+.12f}  (2*sqrt(2) = {2 * math.sqrt(2):.12f})")

print(f"\nsampling the singlet, {N} trials per pair ...")
qrep = chsh_report(count_quantum_experiment(TSIRELSON_ANGLES, N, seed=SEED))
print(f"sampled S* = {qrep.s_star:+.5f} +- {4 * qrep.hoeffding_epsilon:.5f} "
      f"(worst case over four correlations)")
print(f"|S*| > 2: {abs(qrep.s_star) > 2}")

print("\nthe sign-of-cosine LHV model at the same angles:")
lhv = cosine_sign_model()
lhv_table = exact_correlation_table(lhv)
print(f"exact correlations: {tuple(round(float(e), 6) for e in lhv_table.as_tuple())}")
print(f"exact S_lhv = {float(chsh_statistic(lhv_table)):+.6f}  (|S| <= 2 is forced)")

lrep = chsh_report(count_experiment(lhv, N, seed=SEED))
print(f"sampled S* = {lrep.s_star:+.5f}")

print("\nS_qm as the angle spread varies (b1 = spread, a2 = 2*spread, b2 = 3*spread):")
from bellcheck import AnglePair

for steps in range(1, 8):
    spread = steps * math.pi / 16
    s = quantum_chsh(AnglePair(0.0, 2 * spread, spread, 3 * spread))
    marker = " <- violation" if abs(s) > 2 else ""
    print(f"  spread {spread:.4f}: S = {s:+.4f}{marker}")
