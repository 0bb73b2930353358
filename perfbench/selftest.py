"""Self-test of the benchmark's own correctness gate.

A report with S* moved outside its band and a fine-check output with its
verdict flipped must each be counted as a failed operation, while the
untouched outputs pass; and the same workload seed must regenerate the
same inputs. Run it alone with ``python3 perfbench/selftest.py``; every
benchmark run also runs it and counts it as one operation.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import gate
import workloads

_N = 1 << 12


def _inputs(bc, name: str, seed: int, rounds: int = 2) -> list:
    wl = workloads.make(name, bc, seed)
    return [op.inputs for r in range(rounds) for op in wl.round(r)]


def run(bc) -> list[str]:
    """Problems found in the gate; empty when it behaves."""
    problems, outcomes = [], {}
    expect = dict(model="cosine-sign", n=_N, seed=3, lhv=True, conspiring=False,
                  exact_s=float(bc.chsh_statistic(bc.exact_correlation_table(bc.get_model("cosine-sign")))))
    text = workloads.cli_main(bc, ["run", "--model", "cosine-sign", "--n", str(_N), "--seed", "3"])
    outcomes["clean report"] = gate.check_run_report(text, **expect)
    report = json.loads(text)
    shift = 1.5 * gate.chsh_band(_N)
    report["correlations"]["e22"] += shift
    report["s_star"] += shift
    outcomes["perturbed S*"] = gate.check_run_report(json.dumps(report), **expect)

    es, ms = workloads.exact_statistics(np.random.default_rng(5), True)
    argv = ["fine-check", f"--correlations={workloads._frac_text(es)}",
            f"--marginals={workloads._frac_text(ms)}"]
    text = workloads.cli_main(bc, argv)
    outcomes["clean verdict"] = gate.check_fine_check(bc, text, es, ms, True)
    out = json.loads(text)
    out["feasible"] = not out["feasible"]
    outcomes["flipped verdict"] = gate.check_fine_check(bc, json.dumps(out), es, ms, True)

    tally = gate.Tally()
    for label, found in outcomes.items():
        tally.record(label, found)
    failed = sorted(label for label, found in outcomes.items() if found)
    if failed != ["flipped verdict", "perturbed S*"] or tally.failed != 2:
        problems.append(f"gate failed {failed} ({tally.failed} counted), expected the 2 tampered outputs")
    for name in workloads.WORKLOADS:
        if _inputs(bc, name, 11) != _inputs(bc, name, 11):
            problems.append(f"{name}: the same seed gave different inputs")
        if _inputs(bc, name, 11) == _inputs(bc, name, 12):
            problems.append(f"{name}: two seeds gave the same inputs")
    return problems


if __name__ == "__main__":
    import run as bench

    found = run(bench.load_bellcheck())
    for p in found:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: ok" if not found else f"selftest: {len(found)} problems")
    sys.exit(1 if found else 0)
