"""The `run` report stage as it was before it read plain ints, and the
`fine-check` output dict as it was before its layout was written in one
pass: frozen references for `run`'s JSON and CSV reports and for
`fine-check`'s JSON.

This route keys class frequencies by ``Behavior``, divides numpy integer
counts, sorts each pair's classes by code to name them, and renders with
``json.dumps(report, sort_keys=True, indent=2)``. The MI diagnostic keeps
the tie-break the report has always had: the first maximum in
``SETTING_PAIRS`` order, then in the iteration order of
``set(reference) | set(current)``. ``mi_ties`` lists the classes tied at
the maximum, which the tests use to find the seeds where that order
decides the report.
"""

import csv
import io
import json
import math
from dataclasses import asdict
from fractions import Fraction

from bellcheck.core import ALL_BEHAVIORS, SETTING_PAIRS
from bellcheck.engine import chsh_report, hoeffding_epsilon


def class_frequencies(counts) -> dict:
    """Per setting pair, {Behavior: count / n} over the classes that occur,
    each a numpy float."""
    n = counts.n_per_series
    return {
        pair: {ALL_BEHAVIORS[c]: k / n for c, k in enumerate(counts.classes[pair]) if k > 0}
        for pair in SETTING_PAIRS
    }


def _deviations(freqs: dict):
    """(pair, class, deviation from pair (1,1)) in the diagnostic's order."""
    reference = freqs[(1, 1)]
    for pair in SETTING_PAIRS[1:]:
        current = freqs[pair]
        for beh in set(reference) | set(current):
            yield pair, beh, abs(float(current.get(beh, 0)) - float(reference.get(beh, 0)))


def mi_diagnostic(freqs: dict, tolerance: float) -> dict:
    """holds, worst_pair, worst_class and max_deviation: the first strict
    maximum of ``_deviations``."""
    worst_pair, worst_class, max_dev = (1, 1), None, 0.0
    for pair, beh, dev in _deviations(freqs):
        if dev > max_dev:
            worst_pair, worst_class, max_dev = pair, beh, dev
    return {"holds": max_dev <= tolerance, "worst_pair": worst_pair, "worst_class": worst_class,
            "max_deviation": max_dev}


def mi_ties(freqs: dict) -> list:
    """The classes whose deviation equals the maximum within the first pair
    that reaches it, in the diagnostic's order. Where there are two or
    more, that order alone picks the reported class."""
    top = max(dev for _, _, dev in _deviations(freqs))
    if top == 0:
        return []
    first = next(pair for pair, _, dev in _deviations(freqs) if dev == top)
    return [beh.compact() for pair, beh, dev in _deviations(freqs) if pair == first and dev == top]


def report_dict(model_name: str, angles, counts, model) -> dict:
    report = chsh_report(counts)
    out = {
        "model": model_name,
        "n_per_series": report.n_per_series,
        "seed": counts.seed,
        "angles": list(angles) if angles else None,
        "correlations": {key: float(v) for key, v in asdict(report.table).items()},
        "s_star": float(report.s_star),
        "bound_satisfied": report.bound_satisfied,
        "hoeffding_epsilon": report.hoeffding_epsilon,
        "violation_p_value": report.violation_p_value,
        "violation_significant": report.violation_significant,
    }
    if model is not None:
        freqs = class_frequencies(counts)
        out["class_frequencies"] = {
            f"{pair[0]},{pair[1]}": {beh.compact(): float(f) for beh, f in sorted(
                inner.items(), key=lambda kv: kv[0].code)}
            for pair, inner in freqs.items()
        }
        tolerance = 3 * hoeffding_epsilon(counts.n_per_series, value_range=1.0)
        mi = mi_diagnostic(freqs, tolerance)
        out["mi"] = {
            "declared": model.declares_mi,
            "holds": mi["holds"],
            "tolerance": tolerance,
            "max_deviation": mi["max_deviation"],
            "worst_pair": list(mi["worst_pair"]),
            "worst_class": mi["worst_class"].compact() if mi["worst_class"] else None,
        }
    return out


def _exact_and_float(x) -> dict:
    return {"exact": str(Fraction(x)), "float": float(x)}


def fine_check_dict(stats, result) -> dict:
    """What `fine-check` printed for statistics ``stats``, from their
    ``jp_feasible`` result, rendered with ``render_json``."""
    return {
        "feasible": result.feasible,
        "witness": (
            {beh.compact(): str(Fraction(w)) for beh, w in result.witness.weights.items()}
            if result.witness
            else None
        ),
        "violated_facet": (
            {"signs": list(result.certificate.signs), "value": _exact_and_float(result.certificate.value)}
            if result.certificate
            else None
        ),
        "chsh_criterion": {
            "all_pass": result.feasible,
            "max_facet_value": _exact_and_float(stats.facet[1]),
        },
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pair_i", "pair_k", "n", "e_hat", "hoeffding_eps"])
    corr = report["correlations"]
    n = report["n_per_series"]
    eps = report["hoeffding_epsilon"]
    for (i, k), e in zip(SETTING_PAIRS, corr.values()):
        writer.writerow([i, k, n, _fmt(e), _fmt(eps)])
    writer.writerow(["s_star", "bound_2", "tsirelson_2sqrt2", "violation_p_value", "violation_significant"])
    writer.writerow([
        _fmt(report["s_star"]), 2, _fmt(2 * math.sqrt(2)),
        _fmt(report["violation_p_value"]), str(report["violation_significant"]).lower(),
    ])
    return buf.getvalue()


def summary_line(report: dict, path) -> str:
    """What `run --out path` prints to stdout."""
    return f"{report['model']}: n={report['n_per_series']} seed={report['seed']} S*={report['s_star']:+.6f} -> {path}\n"
