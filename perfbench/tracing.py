"""Spans for the traced run and the per-layer metrics built from them.

The traced run wraps, for its duration only, the functions that
bellcheck's `run` and `fine-check` commands call across module lines and
the ones the benchmark calls directly. Each wrapped call becomes a span
(name, start, end, parent, operation). The stages engine calls inside its
block loop (`trial_stream`, `model.sample_lambda`, the batch responses and
`sample_quantum_batch`) are timed instead by replaying them on the log's
own (seed, pair, block) keys after the operation; the replay must give
the log's clicks and tags bit for bit. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

#: (bellcheck submodule, attribute, span name) wrapped during a traced run.
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "engine.generate"),
    ("cli", "run_quantum_experiment", "engine.generate"),
    ("cli", "chsh_report", "engine.chsh_report"),
    ("cli", "class_frequencies", "engine.class_frequencies"),
    ("cli", "mi_diagnostic", "engine.mi_diagnostic"),
    ("cli", "jp_feasible", "jointprob.jp_feasible"),
    ("cli", "chsh_criterion", "jointprob.chsh_criterion"),
    ("engine", "run_experiment", "engine.generate"),
    ("engine", "chsh_report", "engine.chsh_report"),
    ("engine", "class_frequencies", "engine.class_frequencies"),
    ("engine", "mi_diagnostic", "engine.mi_diagnostic"),
    ("engine", "behavior_codes", "core.behavior_codes"),
    ("jointprob", "jp_feasible", "jointprob.jp_feasible"),
    ("jointprob", "solve_equality_feasibility", "simplex.solve"),
    ("ghz", "check_satisfiable", "ghz.check_satisfiable"),
)

_REPLAYED = {"streams.trial_stream", "zoo.sample_lambda", "zoo.respond", "quantum.sample_batch"}
_ALL = {name for _, _, name in PATCHES}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. Wrapped functions must run on the tracing thread;
    engine's worker threads call none of them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[dict] = []
        self.captures: list[tuple[Span, dict, object]] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, len(self.ops) - 1, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int, **attrs) -> None:
        self.spans.append(Span(len(self.spans), parent, name, len(self.ops) - 1, start, end, attrs))

    def begin_op(self, kind: str, info: dict, *, run: bool, sweep: bool) -> None:
        self.ops.append({"kind": kind, "run": run, "sweep": sweep, **info})

    def wrap(self, fn, name: str):
        capture = name == "engine.generate"
        signature = inspect.signature(fn) if capture else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if capture:
                self.captures.append((s, signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, bc):
        patched = []
        try:
            for module_name, attr, name in PATCHES:
                module = getattr(bc, module_name)
                if not hasattr(module, attr):
                    raise AttributeError(f"bellcheck.{module_name} has no {attr} to trace")
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, name))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "op": s.op,
                    "kind": self.ops[s.op]["kind"],
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


class Replayer:
    """Replays the per-block stages of each captured generate call, and
    records the log's computed size, block count and distinct-tag share."""

    def __init__(self, bc, tracer: Tracer):
        self.bc = bc
        self.tracer = tracer
        self.logs: list[dict] = []

    def drain(self) -> list[str]:
        problems = []
        for span, args, log in self.tracer.captures:
            problems += self._replay(span, args, log)
        self.tracer.captures.clear()
        return problems

    def _replay(self, span: Span, args: dict, log) -> list[str]:
        bc, tracer = self.bc, self.tracer
        trial_stream, iter_blocks = bc.streams.trial_stream, bc.streams.iter_blocks
        respond = bc.core._batch_responses
        model, angles = args.get("model"), args.get("angles")
        n, seed = args["n_per_series"], args["seed"]
        arrays = [a for s in log.series.values() for a in (s.alice, s.bob, s.lambdas) if a is not None]
        record = {"op": span.op, "log_bytes": sum(a.nbytes for a in arrays), "blocks": 0}
        if model is not None:
            tags = np.concatenate([s.lambdas for s in log.series.values()])
            record["model"] = model.name
            record["unique_tag_share"] = np.unique(tags).size / tags.size
        problems = []
        for pair in bc.core.SETTING_PAIRS:
            series = log.series[pair]
            for block, start, stop in iter_blocks(n):
                t0 = time.perf_counter()
                rng = trial_stream(seed, bc.core.PAIR_CODES[pair], block)
                t1 = time.perf_counter()
                tracer.add("streams.trial_stream", t0, t1, span.id, replay=True)
                if model is not None:
                    lams = np.asarray(model.sample_lambda(rng, stop - start, pair))
                    t2 = time.perf_counter()
                    alice = respond(model.respond_alice, model.respond_alice_batch, pair[0], lams)
                    bob = respond(model.respond_bob, model.respond_bob_batch, pair[1], lams)
                    t3 = time.perf_counter()
                    tracer.add("zoo.sample_lambda", t1, t2, span.id, replay=True)
                    tracer.add("zoo.respond", t2, t3, span.id, replay=True)
                    same = np.array_equal(lams, series.lambdas[start:stop])
                else:
                    alice, bob = bc.quantum.sample_quantum_batch(
                        angles.alice(pair[0]), angles.bob(pair[1]), rng, stop - start
                    )
                    tracer.add("quantum.sample_batch", t1, time.perf_counter(), span.id, replay=True)
                    same = True
                same = same and np.array_equal(alice, series.alice[start:stop])
                if not (same and np.array_equal(bob, series.bob[start:stop])):
                    problems.append(f"replay of pair {pair} block {block} differs from the log")
                record["blocks"] += 1
        self.logs.append(record)
        return problems


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (linear interpolation), or 0 with no values."""
    return float(np.percentile(values, q)) if values else 0.0


def _percentile_us(seconds: list[float], q: float) -> float:
    return percentile(seconds, q) * 1e6


def layer_metrics(tracer: Tracer, replayer: Replayer, lhv_models, ghz_vars, *, sweep: bool) -> dict:
    """Per-layer metrics as {name: (value, unit)} over the workload's
    operations, or over the sweep's when ``sweep``. Stage times of a `run`
    call are means per call; decider stages give per-call percentiles. A
    layer these operations never call reads 0."""
    ops = tracer.ops
    spans = [s for s in tracer.spans if ops[s.op]["sweep"] == sweep]
    logs = [r for r in replayer.logs if ops[r["op"]]["sweep"] == sweep]
    run_calls = sum(op["run"] for op in ops if op["sweep"] == sweep)

    def named(name, kind=None):
        return [s for s in spans if s.name == name and (kind is None or ops[s.op]["kind"] == kind)]

    def child_seconds(span, names):
        return sum(c.seconds for c in spans if c.parent == span.id and c.name in names)

    def per_call(total):
        return total / run_calls if run_calls else 0.0

    def total(*names):
        return sum(s.seconds for name in names for s in named(name))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def percentiles(prefix, name, kind=None):
        secs = [s.seconds for s in named(name, kind)]
        return {f"{prefix}.p50": (_percentile_us(secs, 50), "us"),
                f"{prefix}.p99": (_percentile_us(secs, 99), "us")}

    single = [s for s in named("engine.generate") if ops[s.op].get("workers", 1) == 1]
    multi = [s.seconds for s in named("engine.generate") if ops[s.op].get("workers", 1) > 1]
    speedup = mean([s.seconds for s in single]) / mean(multi) if single and multi else 0.0
    cli_calls = named("cli.main")
    shares = {r["model"]: r["unique_tag_share"] for r in logs if "model" in r}
    out = {
        "streams.trial_stream_us": (_percentile_us([s.seconds for s in named("streams.trial_stream")], 50), "us"),
        "streams.blocks": (max((r["blocks"] for r in logs), default=0), "count"),
        "zoo.sample_lambda_s": (per_call(total("zoo.sample_lambda")), "s"),
        "zoo.respond_s": (per_call(total("zoo.respond")), "s"),
        **{f"zoo.unique_tag_share.{m}": (shares.get(m, 0.0), "ratio") for m in lhv_models},
        "core.behavior_codes_s": (per_call(total("core.behavior_codes")), "s"),
        "quantum.sample_batch_s": (per_call(total("quantum.sample_batch")), "s"),
        "engine.generate_s": (per_call(total("engine.generate")), "s"),
        # self time only where one worker ran the stages the replay timed
        "engine.generate_self_s": (mean([s.seconds - child_seconds(s, _REPLAYED) for s in single]), "s"),
        "engine.log_bytes": (max((r["log_bytes"] for r in logs), default=0), "bytes"),
        "engine.chsh_report_s": (per_call(total("engine.chsh_report")), "s"),
        "engine.class_frequencies_s": (per_call(total("engine.class_frequencies")), "s"),
        "engine.class_frequencies_self_s": (per_call(sum(
            s.seconds - child_seconds(s, {"core.behavior_codes"}) for s in named("engine.class_frequencies")
        )), "s"),
        "engine.mi_diagnostic_s": (per_call(total("engine.mi_diagnostic")), "s"),
        "engine.worker_speedup": (speedup, "ratio"),
        "cli.self_s": (mean([s.seconds - child_seconds(s, _ALL) for s in cli_calls]), "s"),
        **percentiles("jointprob.jp_feasible_exact_us", "jointprob.jp_feasible", "fine_check"),
        **percentiles("simplex.solve_us", "simplex.solve"),
        **percentiles("jointprob.chsh_criterion_us", "jointprob.chsh_criterion"),
        **percentiles("jointprob.jp_feasible_float_us", "jointprob.jp_feasible", "jp_float"),
    }
    for v in ghz_vars:
        secs = [s.seconds for s in named("ghz.check_satisfiable") if ops[s.op].get("vars") == v]
        out[f"ghz.check_satisfiable_us.v{v}"] = (_percentile_us(secs, 50), "us")
    return out
