"""Command-line front end.

Subcommands: run (sample an experiment and write a report), bound (exact
analysis of a named model), fine-check (joint-probability feasibility of
given statistics), ghz-check (constraint-system satisfiability), zoo
(list models). Exit codes: 0 success, 2 configuration error, 3 model
error, 4 enumeration guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import ghz as ghz_mod
from .core import DOMAIN_SLACK, SETTING_PAIRS, CorrelationTable
from .engine import (
    chsh_report,
    chsh_statistic,
    class_frequencies,
    count_experiment,
    exact_class_frequencies,
    exact_class_weights,
    exact_correlation_table,
    hoeffding_epsilon,
    mi_diagnostic,
    theoretical_chsh,
)
from .errors import ModelError, ResourceLimitError
from .jointprob import BehaviorStatistics, chsh_criterion, jp_feasible
from .quantum import TSIRELSON_ANGLES, AnglePair, count_quantum_experiment

# `run` reports from block counts and builds no trial log. The benchmark's
# traced run (perfbench/tracing.py) wraps cli.run_experiment and
# cli.run_quantum_experiment by name and stops if either is missing, so
# both names stay here; `run` never calls them. The singlet has no trial
# log, so the second name is bound to its count path. ROADMAP item 2 drops
# both names.
from .engine import run_experiment  # noqa: F401
from .quantum import count_quantum_experiment as run_quantum_experiment  # noqa: F401
from .zoo import MODEL_FACTORIES, available_models, get_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_RESOURCE = 4

#: Bounds on one fine-check number, checked before Fraction parses it:
#: Fraction builds 10**|exponent| exactly, so '1e-400000000' alone would
#: run for minutes. Numbers within them parse and decide in well under a
#: second.
_MAX_NUMBER_CHARS = 2000
_MAX_EXPONENT = 2000
_EXPONENT = re.compile(r"[eE]([+-]?\d[\d_]*)\s*$")


@dataclass
class ExperimentConfig:
    model: str
    n_per_series: int = 100_000
    seed: int = 0
    angles: AnglePair | None = None
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        for key in ("model", "output"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
        if self.model != "quantum" and self.model not in MODEL_FACTORIES:
            raise ValueError(
                f"unknown model {self.model!r}; available: "
                f"{', '.join(available_models() + ['quantum'])}"
            )
        self.n_per_series = _as_int("n_per_series", self.n_per_series)
        self.seed = _as_int("seed", self.seed)
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")


#: Config file keys; a flag given on the command line overrides its key.
_CONFIG_KEYS = ("model", "n_per_series", "seed", "output", "format")


def _parse_angles(text: str) -> AnglePair:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--angles expects four comma-separated radians: a1,a2,b1,b2")
    try:
        return AnglePair(*(float(p) for p in parts))
    except ValueError as exc:
        raise ValueError(f"--angles: {exc}") from None


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text())
        except RecursionError:
            raise ValueError(f"config file {args.config}: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config}: {exc}") from None
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(base) - {*_CONFIG_KEYS, "angles"})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    merged = {key: base[key] for key in _CONFIG_KEYS if key in base}
    flags = (args.model, args.n, args.seed, args.out, args.format)
    merged.update((key, flag) for key, flag in zip(_CONFIG_KEYS, flags) if flag is not None)
    if merged.get("model") is None:
        raise ValueError("no model given (use --model or a config file)")
    angles = base.get("angles")
    if angles is not None:
        if not (isinstance(angles, list) and len(angles) == 4 and all(map(_is_number, angles))):
            raise ValueError(f"config angles must be a list of 4 numbers a1,a2,b1,b2, got {angles!r}")
        try:
            angles = AnglePair(*(float(v) for v in angles))
        except OverflowError:
            raise ValueError("config angles: a value is too large for a float") from None
    if args.angles is not None:
        angles = _parse_angles(args.angles)
    return ExperimentConfig(**merged, angles=angles)


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_int(key: str, value) -> int:
    """A config integer: an int, an integral float or a decimal string."""
    try:
        number = int(value) if isinstance(value, str) else value
    except ValueError:
        number = None
    if not _is_number(number) or (isinstance(number, float) and not number.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _pair_key(pair) -> str:
    return f"{pair[0]},{pair[1]}"


def _table_dict(table: CorrelationTable) -> dict:
    return {key: float(v) for key, v in asdict(table).items()}


def _report_dict(config: ExperimentConfig, counts, model) -> dict:
    report = chsh_report(counts)
    out = {
        "model": config.model,
        "n_per_series": report.n_per_series,
        "seed": counts.seed,
        "angles": list(config.angles.as_tuple()) if config.angles else None,
        "correlations": _table_dict(report.table),
        "s_star": float(report.s_star),
        "bound_satisfied": report.bound_satisfied,
        "hoeffding_epsilon": report.hoeffding_epsilon,
        "violation_p_value": report.violation_p_value,
        "violation_significant": report.violation_significant,
    }
    if model is not None:
        freqs = class_frequencies(counts)
        out["class_frequencies"] = {
            _pair_key(pair): {beh.compact(): float(f) for beh, f in sorted(
                inner.items(), key=lambda kv: kv[0].code)}
            for pair, inner in freqs.per_pair.items()
        }
        tolerance = 3 * hoeffding_epsilon(counts.n_per_series, value_range=1.0)
        mi = mi_diagnostic(freqs, tolerance)
        out["mi"] = {
            "declared": model.declares_mi,
            "holds": mi.holds,
            "tolerance": tolerance,
            "max_deviation": mi.max_deviation,
            "worst_pair": list(mi.worst_pair),
            "worst_class": mi.worst_class.compact() if mi.worst_class else None,
        }
    return out


def _render_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render_csv(report_dict: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pair_i", "pair_k", "n", "e_hat", "hoeffding_eps"])
    corr = report_dict["correlations"]
    n = report_dict["n_per_series"]
    eps = report_dict["hoeffding_epsilon"]
    for (i, k), e in zip(SETTING_PAIRS, corr.values()):
        writer.writerow([i, k, n, _fmt(e), _fmt(eps)])
    writer.writerow(["s_star", "bound_2", "tsirelson_2sqrt2", "violation_p_value", "violation_significant"])
    writer.writerow([
        _fmt(report_dict["s_star"]), 2, _fmt(2 * math.sqrt(2)),
        _fmt(report_dict["violation_p_value"]), str(report_dict["violation_significant"]).lower(),
    ])
    return buf.getvalue()


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.model == "quantum":
        angles = config.angles or TSIRELSON_ANGLES
        config.angles = angles
        counts = count_quantum_experiment(angles, config.n_per_series, config.seed)
        model = None
    else:
        model = get_model(config.model, config.angles)
        counts = count_experiment(model, config.n_per_series, config.seed)
    report = _report_dict(config, counts, model)
    text = _render_json(report) if config.format == "json" else _render_csv(report)
    _emit(text, config.output)
    if config.output:
        print(
            f"{config.model}: n={config.n_per_series} seed={config.seed} "
            f"S*={report['s_star']:+.6f} -> {config.output}"
        )
    return EXIT_OK


def _frac_str(x) -> str:
    return str(Fraction(x))


def _exact_and_float(x) -> dict:
    return {"exact": _frac_str(x), "float": float(x)}


def cmd_bound(args: argparse.Namespace) -> int:
    if args.model == "quantum":
        raise ValueError("bound analyses hidden-variable models; use `run --model quantum`")
    model = get_model(args.model)
    table = exact_correlation_table(model)
    series_s = chsh_statistic(table)
    weights = exact_class_weights(model, (1, 1))
    s_single, per_class = theoretical_chsh(weights)
    mi = mi_diagnostic(exact_class_frequencies(model), DOMAIN_SLACK)
    out = {
        "model": args.model,
        "series_table": {key: _exact_and_float(v) for key, v in asdict(table).items()},
        "series_s": _exact_and_float(series_s),
        "single_distribution": {
            "classes": [
                {
                    "behavior": beh.compact(),
                    "weight": _frac_str(w),
                    "c": per_class[beh],
                }
                for beh, w in sorted(weights.items(), key=lambda kv: kv[0].code)
            ],
            "s": _exact_and_float(s_single),
        },
        "mi_holds_exact": mi.holds,
    }
    _emit(_render_json(out), args.out)
    return EXIT_OK


def _parse_fraction_list(text: str, count: int, what: str) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{what} expects {count} comma-separated values")
    return [_parse_fraction(p, what) for p in parts]


def _parse_fraction(text: str, what: str) -> Fraction:
    if len(text) > _MAX_NUMBER_CHARS:
        raise ValueError(f"{what}: a value is longer than {_MAX_NUMBER_CHARS} characters")
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > _MAX_EXPONENT:
        raise ValueError(f"{what}: exponent of {text!r} exceeds {_MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{what}: {text!r} has a zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def cmd_fine_check(args: argparse.Namespace) -> int:
    es = _parse_fraction_list(args.correlations, 4, "--correlations")
    ms = (
        _parse_fraction_list(args.marginals, 4, "--marginals")
        if args.marginals is not None
        else [Fraction(0)] * 4
    )
    stats = BehaviorStatistics(CorrelationTable(*es), *ms)
    result = jp_feasible(stats)
    all_pass, max_facet = chsh_criterion(stats.correlations)
    out = {
        "feasible": result.feasible,
        "witness": (
            {
                beh.compact(): _frac_str(w)
                for beh, w in sorted(result.witness.weights.items(), key=lambda kv: kv[0].code)
            }
            if result.witness
            else None
        ),
        "violated_facet": (
            {"signs": list(result.certificate.signs), "value": _exact_and_float(result.certificate.value)}
            if result.certificate
            else None
        ),
        "chsh_criterion": {
            "all_pass": all_pass,
            "max_facet_value": _exact_and_float(max_facet),
        },
    }
    _emit(_render_json(out), args.out)
    return EXIT_OK


def cmd_ghz_check(args: argparse.Namespace) -> int:
    constraints = ghz_mod.ghz_constraint_system(args.phi, include_fifth=args.fifth)
    result = ghz_mod.check_satisfiable(constraints)
    out = {
        "phi": args.phi,
        "include_fifth": args.fifth,
        "n_constraints": len(constraints),
        "satisfiable": result.satisfiable,
        "assignments_checked": result.assignments_checked,
        "witness": (
            {f"{party}({angle:.6g})": value for (party, angle), value in sorted(result.witness.items())}
            if result.witness
            else None
        ),
    }
    _emit(_render_json(out), args.out)
    return EXIT_OK


def cmd_zoo(args: argparse.Namespace) -> int:
    for name in available_models():
        print(f"{name:12s} {MODEL_FACTORIES[name]().description}")
    print(f"{'quantum':12s} singlet sampling, no hidden variables (run only)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args keeps no state
    between calls."""
    parser = argparse.ArgumentParser(
        prog="bellcheck",
        description="Run and verify Bell/CHSH experiments on hidden-variable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sample an experiment and write a report")
    run.add_argument("--model", help="zoo model name or 'quantum'")
    run.add_argument("--n", type=int, help="trials per setting pair")
    run.add_argument("--seed", type=int, help="experiment seed (unsigned 64-bit)")
    run.add_argument("--angles", help="a1,a2,b1,b2 in radians")
    run.add_argument("--out", help="report file (default: stdout)")
    run.add_argument("--format", choices=("json", "csv"), help="report format")
    run.add_argument("--config", help="JSON config file; flags override it")
    run.set_defaults(func=cmd_run)

    bound = sub.add_parser("bound", help="exact CHSH analysis of a zoo model")
    bound.add_argument("--model", required=True)
    bound.add_argument("--out")
    bound.set_defaults(func=cmd_bound)

    fine = sub.add_parser("fine-check", help="joint-probability feasibility of given statistics")
    fine.add_argument("--correlations", required=True, help="e11,e12,e21,e22 (fractions or decimals)")
    fine.add_argument("--marginals", help="m_a1,m_a2,m_b1,m_b2 (default zeros)")
    fine.add_argument("--out")
    fine.set_defaults(func=cmd_fine_check)

    ghz = sub.add_parser("ghz-check", help="satisfiability of the parity constraint system")
    ghz.add_argument("--phi", type=float, default=math.pi / 2)
    ghz.add_argument("--fifth", action="store_true", help="append the contradicting fifth constraint")
    ghz.add_argument("--out")
    ghz.set_defaults(func=cmd_ghz_check)

    zoo = sub.add_parser("zoo", help="list available models")
    zoo.set_defaults(func=cmd_zoo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
