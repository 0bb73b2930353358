"""bellcheck benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

W is one of lhv-dice-coin, lhv-cosine-sign, lhv-conspiracy,
lhv-continuous, quantum-run, fine-check, jp-float, ghz-check.

Run from any directory; bellcheck is imported from the ``src`` directory
next to this one. The workload's inputs come from ``--seed``. Rounds of
operations run for ``--seconds`` seconds in all, shared by the
workload's fresh measuring processes one after another, and every output is
checked (see ``gate.py``); an operation that raises or fails its check
counts as failed. Set-up time comes from fresh processes that import
bellcheck, build the workload and make one warm-up call of each kind.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (``setup_s``, ``throughput_per_ref``,
``peak_rss_mb``; see README.md) and the line before it holds the per-kind
figures (``run_trials_per_s.<model>``, ``fine_check_per_s``, ...); with
``--trace 1`` this process runs half the time untraced, the same rounds
again traced, and the metrics are the per-layer ones (see ``tracing.py``). Full
results, report hashes and provenance go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def load_bellcheck():
    """Import bellcheck from this checkout's source tree, or exit."""
    package = SRC / "bellcheck"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bellcheck sources in {package}")
    sys.path.insert(0, str(SRC))
    import bellcheck
    import bellcheck.cli
    import bellcheck.core
    import bellcheck.engine
    import bellcheck.ghz
    import bellcheck.jointprob
    import bellcheck.quantum
    import bellcheck.streams

    if Path(bellcheck.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported bellcheck from {bellcheck.__file__}, not {package}")
    return bellcheck


def probe(what: str, workload: str, seed: int) -> float:
    """In a fresh process: seconds to import bellcheck, build the workload
    and warm it up (``setup``), or seconds of the reference probe that
    calibrates it (``reference``)."""
    t0 = time.perf_counter()
    if what == "reference":
        import calibrate

        calibrate.reference_probe()
        return time.perf_counter() - t0
    bc = load_bellcheck()
    import workloads

    workloads.make(workload, bc, seed).warm_up()
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """High-water RSS of this process in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_probe(what: str, workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe", what, "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {what} probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def measure_setup(workload: str, seed: int) -> dict:
    """Set-up time in calibrated seconds: the median over SETUP_REPEATS
    fresh set-up processes of each one's seconds divided by those of a
    reference probe run just before it, times PROBE_NOMINAL_S. The raw
    seconds follow the machine's speed, which drifts over tens of seconds
    on a shared VM: on jp-float the IQR/median of the raw median over
    eight batches was 0.27, of the calibrated one 0.05."""
    from calibrate import PROBE_NOMINAL_S

    seconds, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(run_probe("reference", workload, seed))
        seconds.append(run_probe("setup", workload, seed))
    value = statistics.median(s / r for s, r in zip(seconds, reference)) * PROBE_NOMINAL_S
    return {"value": value, "seconds": seconds, "reference_s": reference}


@dataclass
class Timed:
    kind: str
    seconds: float
    units: int
    info: dict
    output: object
    #: index of the calibration sample taken before the call, and the
    #: reference-kernel seconds around the call once the pass is over
    sample: int = -1
    reference_s: float = 0.0
    #: CPU seconds of this process (all its threads) during the call
    cpu_seconds: float = 0.0


class Reports:
    """sha256 of every report; a (model, seed) must always give the same bytes."""

    def __init__(self):
        self.first: dict[tuple, str] = {}
        self.records: list[dict] = []

    def record(self, op, text: str) -> list[str]:
        model, seed = op.report_key
        return self.record_digest({"model": model, "seed": seed, "kind": op.kind,
                                   "workers": op.info.get("workers"),
                                   "sha256": hashlib.sha256(text.encode()).hexdigest()})

    def record_digest(self, record: dict) -> list[str]:
        self.records.append(record)
        model, seed = record["model"], record["seed"]
        if self.first.setdefault((model, seed), record["sha256"]) != record["sha256"]:
            return [f"report bytes of {model} seed {seed} differ from an earlier run of it"]
        return []


def run_op(op, label, tally, reports, tracer=None, replayer=None, sweep=False):
    """Time one operation and check its output; returns its timing, or
    None when it raised."""
    if tracer is not None:
        tracer.begin_op(op.kind, op.info, run=op.report_key is not None, sweep=sweep)
    span = tracer.span(f"op.{op.kind}") if tracer is not None else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.process_time()
    with span:
        try:
            output = op.call()
        except Exception as exc:  # an operation that raises is a failed operation
            tally.record(label, [f"raised {exc!r}"])
            return None
    elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
    problems = op.check(output)
    if replayer is not None:
        problems += replayer.drain()
    if op.report_key is not None:
        problems += reports.record(op, output)
    tally.record(label, problems)
    return Timed(op.kind, elapsed, op.units, op.info, output, cpu_seconds=cpu)


def run_rounds(wl, tally, reports, *, seconds=None, rounds=None, first=0, tracer=None,
               replayer=None, calibrator=None):
    """Run whole rounds from round ``first`` until ``seconds`` have passed
    or ``rounds`` are done; returns the timings and the next round."""
    timed: list[Timed] = []
    start = time.perf_counter()
    r = first
    while (r - first < rounds) if rounds is not None else (time.perf_counter() - start < seconds):
        for op in wl.round(r):
            sample = calibrator.tick() if calibrator is not None else -1
            t = run_op(op, f"{op.kind} round {r}", tally, reports, tracer, replayer)
            if t is not None:
                t.sample = sample
                timed.append(t)
        r += 1
    if calibrator is not None:
        calibrator.tick(force=True)
        for t in timed:
            t.reference_s = calibrator.around(t.sample)
    return timed, r


def rate_metric(kind: str) -> str:
    from workloads import DECISION_KINDS

    return f"{kind}_per_s" if kind in DECISION_KINDS else f"run_trials_per_s.{kind}"


def call_rows(timed: list[Timed]) -> list[list]:
    """[kind, seconds, CPU seconds, reference-kernel CPU seconds, units of
    work, workers] per call."""
    return [[t.kind, t.seconds, t.cpu_seconds, t.reference_s, t.units, t.info.get("workers", 1)]
            for t in timed]


def kind_figures(kinds, rows: list[list]) -> dict:
    """Per kind: work per wall second, p50/p99 call latency, sample count
    and, for single-threaded kinds, work per reference-kernel time, both
    in CPU time. Rates are the kind's total work over its total time, so
    every size in the mix counts by its cost."""
    from tracing import percentile

    out = {}
    for kind in kinds:
        calls = [r for r in rows if r[0] == kind]
        secs = [r[1] for r in calls]
        work = sum(r[4] for r in calls)
        figures = {
            "value": work / sum(secs) if calls else 0.0,
            "unit": "1/s",
            "p50_ms": percentile(secs, 50) * 1e3,
            "p99_ms": percentile(secs, 99) * 1e3,
            "samples": len(secs),
        }
        # The kernel runs on one thread, so it calibrates one-thread calls only.
        if calls and all(r[5] == 1 for r in calls):
            figures["per_ref"] = work / sum(r[2] / r[3] for r in calls)
        out[rate_metric(kind)] = figures
    return out


def measure(workload: str, seed: int, seconds: float) -> dict:
    """In a fresh process: run the workload's rounds for ``seconds`` with
    calibration, and return what the parent needs to merge and check."""
    import calibrate
    import gate
    import workloads

    bc = load_bellcheck()
    wl = workloads.make(workload, bc, seed)
    wl.warm_up()
    tally, reports = gate.Tally(), Reports()
    calibrator = calibrate.Calibrator(wl.kernel)
    start = time.perf_counter()
    timed, _ = run_rounds(wl, tally, reports, rounds=1, calibrator=calibrator)
    # Peak after set-up and round 0, the same work in every process: how
    # many rounds fit in the time, and so the peak after all of them,
    # follows the machine's speed.
    rss = peak_rss_mb()
    more, rounds = run_rounds(wl, tally, reports, seconds=seconds - (time.perf_counter() - start),
                              first=1, calibrator=calibrator)
    rows = call_rows(timed + more)
    return {
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
        "rounds": rounds, "rows": rows, "kinds": kind_figures(wl.kinds, rows),
        "reports": reports.records, "reference_s": calibrator.samples, "peak_rss_mb": rss,
    }


def run_measure(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--measure", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: measuring process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def provenance(bc, args) -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    import workloads

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": workloads.nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy_version, "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "block_size": bc.streams.BLOCK_SIZE,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="one of the names above")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "reference"), help=argparse.SUPPRESS)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.probe:  # before anything else is imported, so that set-up counts it
        print(repr(probe(args.probe, args.workload, args.seed)))
        return 0
    if args.measure:
        print(json.dumps(measure(args.workload, args.seed, args.seconds)))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    bc = load_bellcheck()
    import gate
    import selftest
    import tracing

    wl = workloads.make(args.workload, bc, args.seed)
    tally, reports = gate.Tally(), Reports()
    tally.record("gate self-test", selftest.run(bc))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result: dict = {"provenance": provenance(bc, args)}

    if args.trace == 0:
        setup = measure_setup(args.workload, args.seed)
        parts = [run_measure(args.workload, args.seed, args.seconds / wl.processes)
                 for _ in range(wl.processes)]
        for part in parts:
            tally.attempted += part["attempted"]
            tally.failed += part["failed"]
            tally.problems = (tally.problems + part["problems"])[:tally.KEEP]
        # Every process runs rounds from 0, so each report must also match
        # the same (model, seed) report of the other processes.
        tally.record("report bytes across processes", [
            problem for part in parts for record in part["reports"]
            for problem in reports.record_digest(record)])
        rows = [row for part in parts for row in part["rows"]]
        figures = kind_figures(wl.kinds, rows)
        for name, f in figures.items():
            if "per_ref" in f:
                f["per_ref"] = statistics.median(part["kinds"][name]["per_ref"] for part in parts)
        # The workload's first kind is its bounded one. The nproc-worker
        # calls of quantum-run are left out: how much of a second core a
        # shared machine leaves free swung their rate by 10-36% (IQR/median)
        # across runs, calibrated or not.
        throughput = figures[rate_metric(wl.kinds[0])].get("per_ref", 0.0)
        metrics = {
            "setup_s": {"value": setup["value"], "unit": "s"},
            "throughput_per_ref": {"value": throughput, "unit": "1/ref"},
            # each measuring process's own peak: set-up and all its rounds
            "peak_rss_mb": {"value": statistics.median(part["peak_rss_mb"] for part in parts),
                            "unit": "MB"},
        }
        rounds = sum(part["rounds"] for part in parts)
        result.update(setup=setup, rounds=rounds, kinds=figures, parts=[
            {k: part[k] for k in ("rounds", "kinds", "reference_s", "peak_rss_mb")} for part in parts
        ], calls=rows, counts={
            "trials_per_call": {r[0]: r[4] for r in rows if r[0] not in workloads.DECISION_KINDS},
        })
        print(json.dumps({"workload": args.workload, "rounds": rounds, "kinds": figures}))
    else:
        wl.warm_up()
        untraced, rounds = run_rounds(wl, tally, reports, seconds=args.seconds / 2)
        sweep_ops = workloads.sweep_ops(bc)
        for op in sweep_ops:  # untimed first calls, so lazy imports land here
            op.call()
        tracer = tracing.Tracer()
        replayer = tracing.Replayer(bc, tracer)
        with tracer.installed(bc):
            traced, _ = run_rounds(wl, tally, reports, rounds=rounds, tracer=tracer, replayer=replayer)
            sweep = [run_op(op, f"sweep {op.kind}", tally, reports, tracer, replayer, sweep=True)
                     for op in sweep_ops]
        # A layer the workload never calls is timed on the sweep instead.
        own, swept = (
            tracing.layer_metrics(tracer, replayer, workloads.LHV_MODELS, workloads.GHZ_VARS, sweep=flag)
            for flag in (False, True)
        )
        from_sweep = sorted(name for name, (value, _) in own.items() if not value)
        layers = {name: swept[name] if name in from_sweep else own[name] for name in own}
        # assignments enumerated per round, which holds one system of each size
        own_ghz = sum(t.output.assignments_checked for t in traced if t.kind == "ghz_check") // rounds
        swept_ghz = sum(t.output.assignments_checked for t in sweep if t and t.kind == "ghz_check")
        layers["ghz.assignments_checked"] = (own_ghz or swept_ghz, "count")
        from_sweep += [] if own_ghz else ["ghz.assignments_checked"]
        pairs = len(traced) if len(traced) == len(untraced) else 0
        overhead = (sum(t.seconds for t in traced) - sum(t.seconds for t in untraced)) / pairs if pairs else 0.0
        layers["bench.trace_overhead"] = (overhead, "s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        result.update(rounds=rounds, traced_ops=len(traced), untraced_ops=len(untraced),
                      from_sweep=from_sweep)

    result.update(metrics=metrics, reports=reports.records, problems=tally.problems)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
