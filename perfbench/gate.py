"""Correctness checks for the outputs the benchmark times.

Every check returns the list of problems it found in one output; an empty
list means the output is correct. A benchmark operation with any problem
counts as failed. The expected values are computed here, independently of
the code under test, wherever that is short: the CHSH band, the facet
values and the planted answers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: Chance that a correct report falls outside its S* band.
FAILURE_PROBABILITY = 1e-9

#: Largest deviation allowed between float statistics and their witness.
FLOAT_WITNESS_TOL = 1e-9

_CORRELATION_KEYS = ("e11", "e12", "e21", "e22")
_PAIR_KEYS = ("1,1", "1,2", "2,1", "2,2")


class Tally:
    """Counts operations attempted and failed, keeping the first problems."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < self.KEEP:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def chsh_band(n: int, delta: float = FAILURE_PROBABILITY) -> float:
    """Half-width of a band holding |S* - S| with probability >= 1 - delta.

    Each correlation is a mean of n independent +-1 products, so by
    Hoeffding P(|E_hat - E| >= t) <= 2 exp(-n t^2 / 2). Spending delta/4 on
    each of the four correlations and adding their deviations gives 4 t.
    """
    return 4.0 * math.sqrt(2.0 * math.log(8.0 / delta) / n)


def max_facet(es) -> object:
    """Largest of the eight CHSH facet values of (e11, e12, e21, e22):
    one term negated, either overall sign. Exact for Fraction input."""
    total = sum(es)
    return max(abs(total - 2 * e) for e in es)


def check_run_report(
    text: str, *, model: str, n: int, seed: int, exact_s: float, lhv: bool, conspiring: bool
) -> list[str]:
    """Check one JSON `run` report against the model's exact CHSH value."""
    try:
        rep = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    problems = []
    try:
        if rep["model"] != model or rep["n_per_series"] != n or rep["seed"] != seed:
            problems.append(
                f"header {rep['model']}/{rep['n_per_series']}/{rep['seed']} "
                f"is not {model}/{n}/{seed}"
            )
        es = [rep["correlations"][k] for k in _CORRELATION_KEYS]
        s = rep["s_star"]
        if abs(s - (es[0] - es[1] + es[2] + es[3])) > 1e-12:
            problems.append(f"s_star {s!r} is not e11 - e12 + e21 + e22")
        band = chsh_band(n)
        if not abs(s - exact_s) <= band:
            problems.append(f"s_star {s!r} is outside {exact_s!r} +- {band:.6g}")
        if lhv:
            freqs = rep["class_frequencies"]
            for key in _PAIR_KEYS:
                values = freqs[key].values()
                if any(v < 0 for v in values) or abs(sum(values) - 1.0) > 1e-9:
                    problems.append(f"class frequencies of pair {key} do not sum to 1")
            if conspiring and rep["mi"]["holds"] is not False:
                problems.append("the MI diagnostic did not flag a conspiring source")
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"report lacks a field: {exc!r}")
    return problems


def _witness_statistics(bc, witness) -> list:
    stats = bc.statistics_of(witness)
    return list(stats.correlations.as_tuple()) + list(stats.marginals())


def check_fine_check(bc, text: str, es: list[Fraction], ms: list[Fraction], planted: bool) -> list[str]:
    """Check one `fine-check` JSON output for exact statistics (es, ms)."""
    try:
        out = json.loads(text)
    except ValueError:
        return ["fine-check output is not JSON"]
    fine = max_facet(es) <= 2
    problems = []
    try:
        feasible = out["feasible"]
        if feasible is not planted:
            problems.append(f"verdict {feasible} differs from the planted {planted}")
        if feasible is not fine:
            problems.append(f"verdict {feasible} differs from Fine's facet test {fine}")
        if out["chsh_criterion"]["all_pass"] is not fine:
            problems.append("reported chsh_criterion differs from the facet values")
        if feasible:
            weights = {
                bc.Behavior.from_compact(k): Fraction(v) for k, v in out["witness"].items()
            }
            got = _witness_statistics(bc, bc.JointProbability(weights))
            if got != list(es) + list(ms):
                problems.append("exact witness does not reproduce the statistics")
        else:
            facet = out["violated_facet"]
            value = Fraction(facet["value"]["exact"])
            if value <= 2 or value != sum(s * e for s, e in zip(facet["signs"], es)):
                problems.append(f"violated facet value {value} is wrong or not above 2")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"fine-check output lacks a field: {exc!r}")
    return problems


def check_jp_float(bc, result, es: list[float], ms: list[float], planted: bool) -> list[str]:
    """Check one float `jp_feasible` result against Fine's facet test."""
    fine = max_facet(es) <= 2
    problems = []
    if result.feasible is not planted:
        problems.append(f"verdict {result.feasible} differs from the planted {planted}")
    if result.feasible is not fine:
        problems.append(f"verdict {result.feasible} differs from Fine's facet test {fine}")
    if result.feasible:
        got = _witness_statistics(bc, result.witness)
        dev = max(abs(float(g) - w) for g, w in zip(got, list(es) + list(ms)))
        if not dev <= FLOAT_WITNESS_TOL:
            problems.append(f"float witness misses the statistics by {dev:.3g}")
    elif result.certificate is None or not float(result.certificate.value) > 2:
        problems.append("infeasible verdict carries no facet above 2")
    return problems


def check_ghz(bc, result, constraints, n_vars: int, planted: bool) -> list[str]:
    """Check one `check_satisfiable` result on a planted parity system."""
    problems = []
    if result.satisfiable is not planted:
        problems.append(f"verdict {result.satisfiable} differs from the planted {planted}")
    if result.assignments_checked != 1 << n_vars:
        problems.append(f"{result.assignments_checked} assignments checked, not 2^{n_vars}")
    if result.satisfiable:
        try:
            broken = [c for c in constraints if bc.ghz.evaluate_constraint(c, result.witness) != c.target]
        except KeyError as exc:
            return problems + [f"witness lacks variable {exc!r}"]
        if broken:
            problems.append(f"witness breaks {len(broken)} constraints")
    return problems
