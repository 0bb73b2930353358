#!/usr/bin/env python3
"""Run the dice-coin model as an actual four-series experiment.

The source rolls a die, both stations evaluate fixed response functions
of their own setting and the roll. Exact analysis says the correlations
are (1, 0, 0, -1) and S = 0; here we sample the experiment into per-pair
class counts, compare the estimates against the exact values at the 99%
Hoeffding half-width, and look at which behavior classes actually showed
up.
"""

from bellcheck import (
    SETTING_PAIRS,
    chsh_report,
    chsh_statistic,
    class_frequencies,
    count_experiment,
    dice_coin_model,
    exact_class_weights,
    mi_diagnostic,
    theoretical_chsh,
    theoretical_correlations,
)

N = 200_000
SEED = 42

model = dice_coin_model()
print(f"model: {model.name} ({model.description})")

weights = exact_class_weights(model)
exact_table = theoretical_correlations(weights)
s_exact, per_class = theoretical_chsh(weights)
print("\nexact class weights (from enumerating the six die faces):")
for beh, w in sorted(weights.items(), key=lambda kv: kv[0].code):
    print(f"  class {beh.compact()}  weight {w}  C = {per_class[beh]:+d}")
print(f"exact correlations: {tuple(str(e) for e in exact_table.as_tuple())}")
print(f"exact S = {s_exact}")

print(f"\nsampling {N} trials per setting pair, seed {SEED} ...")
counts = count_experiment(model, N, seed=SEED)
report = chsh_report(counts)
print(f"{'pair':>6} {'estimate':>10} {'exact':>7} {'|diff|':>9}  within eps={report.hoeffding_epsilon:.4f}?")
for pair, exact in zip(SETTING_PAIRS, exact_table.as_tuple()):
    est = report.table.value(pair)
    diff = abs(est - float(exact))
    print(f"{str(pair):>6} {est:>10.5f} {float(exact):>7.2f} {diff:>9.5f}  {diff <= report.hoeffding_epsilon}")
print(f"S* = {report.s_star:+.5f}  (|S*| <= 2: {report.bound_satisfied})")

freqs = class_frequencies(counts)
print("\nsampled class frequencies per pair (at most 16 classes can ever appear):")
for pair in sorted(freqs.per_pair):
    row = ", ".join(
        f"{beh.compact()}: {f:.4f}" for beh, f in sorted(freqs.per_pair[pair].items(), key=lambda kv: kv[0].code)
    )
    print(f"  {pair}: {row}")

mi = mi_diagnostic(freqs, tolerance=0.01)
print(f"\nmeasurement independence holds within 0.01: {mi.holds} "
      f"(max deviation {mi.max_deviation:.5f} at pair {mi.worst_pair})")
assert chsh_statistic(exact_table) == 0
