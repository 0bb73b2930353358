"""Seeded inputs and timed operations for the benchmark workloads.

A workload is an endless sequence of rounds. Round r holds a fixed mix of
operations whose inputs are a pure function of (workload seed, r), so the
same seed regenerates the same inputs. An operation is one timed call
into bellcheck plus an untimed correctness check of what it returned.
Each workload times one kind of operation, so that each kind has its own
bounded throughput; only ``quantum-run`` adds a second kind that the bound
leaves out (the same call on nproc workers).

- ``lhv-<model>`` for dice-coin, cosine-sign and conspiracy: `bellcheck run`
  at 2^20 trials per series with one worker; ``lhv-continuous``: the same
  library pipeline for the benchmark's ``continuous`` model. The models
  draw 6, 720, 1 (per pair) and ~n distinct tags.
- ``quantum-run``: `bellcheck run --model quantum` at Tsirelson angles,
  2^22 trials per series, once with one worker and once with nproc
  workers on the same seed.
- ``fine-check``: exact `bellcheck fine-check` calls; ``jp-float``: float
  `jp_feasible` calls; ``ghz-check``: `check_satisfiable` on planted parity
  systems of 12 to 18 variables.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import gate

LHV_N = 1 << 20
QUANTUM_N = 1 << 22
WARMUP_N = 1 << 10
ZOO_MODELS = ("dice-coin", "cosine-sign", "conspiracy")
CONTINUOUS = "continuous"
LHV_MODELS = ZOO_MODELS + (CONTINUOUS,)
#: operation kinds whose unit of work is one decision, not one trial
DECISION_KINDS = ("fine_check", "jp_float", "ghz_check")
GHZ_VARS = tuple(range(12, 19))
FINE_PER_ROUND = 20
FLOAT_PER_ROUND = 16
#: Float statistics stay this far from the facet value 2 on either side.
FACET_MARGIN = 1e-6
#: Angles of the continuous model: the CHSH-optimal quadruple.
CONTINUOUS_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)

#: Round index of the warm-up inputs; measurement never reaches it.
WARMUP_ROUND = 2**32

_TWO_PI = 2 * math.pi


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class Op:
    """One timed call. ``call`` is timed; ``check(output)`` is not."""

    kind: str
    units: int
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    inputs: tuple
    #: (model, seed) of a report whose bytes must not depend on workers or tracing.
    report_key: tuple | None = None
    info: dict = field(default_factory=dict)


def continuous_model(bc):
    """An LHV model with float directions in [0, 2*pi) and no tag domain.

    Alice answers sign(cos(a - lam)), Bob the opposite sign at b, so
    E(a, b) = -(1 - 2|a - b|/pi) and S = -2 at the CHSH-optimal angles.
    Its tags never repeat, unlike every zoo model's.
    """
    alice = dict(zip((1, 2), CONTINUOUS_ANGLES[:2]))
    bob = dict(zip((1, 2), CONTINUOUS_ANGLES[2:]))

    def respond_alice(index, lam):
        return 1 if math.cos(alice[index] - lam) >= 0 else -1

    def respond_bob(index, lam):
        return -1 if math.cos(bob[index] - lam) >= 0 else 1

    def alice_batch(index, lams):
        return np.where(np.cos(alice[index] - lams) >= 0, 1, -1).astype(np.int8)

    def bob_batch(index, lams):
        return np.where(np.cos(bob[index] - lams) >= 0, -1, 1).astype(np.int8)

    return bc.LhvModel(
        name=CONTINUOUS,
        respond_alice=respond_alice,
        respond_bob=respond_bob,
        sample_lambda=lambda rng, n, pair: rng.random(n) * _TWO_PI,
        declares_mi=True,
        description="sign(cos(angle - direction)) with a continuous direction",
        respond_alice_batch=alice_batch,
        respond_bob_batch=bob_batch,
    )


def continuous_exact_s() -> float:
    a1, a2, b1, b2 = CONTINUOUS_ANGLES

    def e(a, b):
        d = abs(a - b) % _TWO_PI
        return -(1 - 2 * min(d, _TWO_PI - d) / math.pi)

    return e(a1, b1) - e(a1, b2) + e(a2, b1) + e(a2, b2)


def cli_main(bc, argv: list[str]) -> str:
    """`bellcheck <argv>` in-process; returns what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bc.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"bellcheck {' '.join(argv)} exited {code}")
    return buf.getvalue()


def library_report(bc, model, n: int, seed: int) -> str:
    """The `run` pipeline through the library, rendered as `run` does.

    Functions are looked up on their modules at call time so that a traced
    run sees these calls too.
    """
    engine = bc.engine
    log = engine.run_experiment(model, n, seed)
    report = engine.chsh_report(log)
    freqs = engine.class_frequencies(log, model)
    tolerance = 3 * engine.hoeffding_epsilon(n, value_range=1.0)
    mi = engine.mi_diagnostic(freqs, tolerance)
    table = report.table
    out = {
        "model": model.name,
        "n_per_series": report.n_per_series,
        "seed": log.seed,
        "angles": list(CONTINUOUS_ANGLES),
        "correlations": dict(zip(("e11", "e12", "e21", "e22"), map(float, table.as_tuple()))),
        "s_star": float(report.s_star),
        "bound_satisfied": report.bound_satisfied,
        "hoeffding_epsilon": report.hoeffding_epsilon,
        "class_frequencies": {
            f"{i},{k}": {b.compact(): float(f) for b, f in sorted(inner.items(), key=lambda kv: kv[0].code)}
            for (i, k), inner in freqs.per_pair.items()
        },
        "mi": {
            "declared": model.declares_mi,
            "holds": mi.holds,
            "tolerance": tolerance,
            "max_deviation": mi.max_deviation,
        },
    }
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def _with_threads(count: int, call):
    """call() with BELLCHECK_THREADS set to count, restored afterwards."""
    old = os.environ.get("BELLCHECK_THREADS")
    os.environ["BELLCHECK_THREADS"] = str(count)
    try:
        return call()
    finally:
        if old is None:
            del os.environ["BELLCHECK_THREADS"]
        else:
            os.environ["BELLCHECK_THREADS"] = old


class Workload:
    name = ""
    #: kinds of operation in a round; the first is the one the bounded
    #: throughput measures
    kinds: tuple[str, ...] = ()
    #: keeps the input streams of two workloads apart on the same seed
    tag = 0
    #: calibration kernel (see calibrate.Calibrator) that tracks this
    #: workload's speed best
    kernel = "mixed"
    #: fresh processes that share the measured seconds; the end-to-end
    #: figures are the median over them. A process's speed (its memory
    #: layout and hash seed) varied by about 9% (IQR/median) from process
    #: to process on jp-float, so workloads of short calls take three; a
    #: `run` call takes about a second, and three processes would leave one
    #: or two calls each.
    processes = 3

    def __init__(self, bc, seed: int):
        self.bc = bc
        self.seed = seed

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.tag, r])

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small call of every kind, so lazy imports and caches are done."""
        for op in self.warm_up_ops():
            problems = op.check(op.call())
            if problems:
                raise RuntimeError(f"warm-up {op.kind} failed: {problems}")

    def warm_up_ops(self) -> list[Op]:
        raise NotImplementedError

    def sweep_ops(self) -> list[Op]:
        return self.warm_up_ops()


def _seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


class LhvRun(Workload):
    """`bellcheck run` of one LHV model (the library pipeline for
    ``continuous``), one call per round."""

    kernel = "vector"
    processes = 1

    def __init__(self, bc, seed, model: str):
        super().__init__(bc, seed)
        self.name = f"lhv-{model}"
        self.kinds = (model,)
        self.tag = 1 + LHV_MODELS.index(model)
        if model == CONTINUOUS:
            self.continuous = continuous_model(bc)
            self.exact_s = continuous_exact_s()
        else:
            self.exact_s = float(bc.chsh_statistic(bc.exact_correlation_table(bc.get_model(model))))

    def _op(self, n: int, seed: int) -> Op:
        bc, kind = self.bc, self.kinds[0]
        if kind == CONTINUOUS:
            call = lambda: library_report(bc, self.continuous, n, seed)
        else:
            argv = ["run", "--model", kind, "--n", str(n), "--seed", str(seed)]
            call = lambda: cli_main(bc, argv)
        check = lambda text: gate.check_run_report(
            text, model=kind, n=n, seed=seed, exact_s=self.exact_s,
            lhv=True, conspiring=kind == "conspiracy",
        )
        return Op(kind, 4 * n, lambda: _with_threads(1, call), check, (kind, n, seed), (kind, seed),
                  {"workers": 1})

    def round(self, r):
        return [self._op(LHV_N, _seed_of(self.rng(r)))]

    def warm_up_ops(self):
        return [self._op(WARMUP_N, 1)]


class QuantumRun(Workload):
    name = "quantum-run"
    kinds = ("quantum", "quantum-threads")
    tag = 5
    kernel = "vector"
    processes = 1

    def __init__(self, bc, seed):
        super().__init__(bc, seed)
        self.exact_s = float(bc.quantum_chsh(bc.TSIRELSON_ANGLES))
        self.workers = nproc()

    def _ops(self, n: int, seed: int) -> list[Op]:
        argv = ["run", "--model", "quantum", "--n", str(n), "--seed", str(seed)]
        check = lambda text: gate.check_run_report(
            text, model="quantum", n=n, seed=seed, exact_s=self.exact_s, lhv=False, conspiring=False
        )
        return [
            Op(kind, 4 * n, lambda w=workers: _with_threads(w, lambda: cli_main(self.bc, argv)),
               check, (kind, n, seed), ("quantum", seed), {"workers": workers})
            for kind, workers in zip(self.kinds, (1, self.workers))
        ]

    def round(self, r):
        return self._ops(QUANTUM_N, _seed_of(self.rng(r)))

    def warm_up_ops(self):
        return self._ops(WARMUP_N, 1)


def _frac_text(values) -> str:
    return ",".join(str(v) for v in values)


def _class_signs(code: int) -> tuple[int, int, int, int]:
    """(a1, a2, b1, b2) of a behavior code: a1 is bit 3, +1 is a set bit."""
    return tuple(1 if code >> bit & 1 else -1 for bit in (3, 2, 1, 0))


def _mixture_statistics(codes, weights) -> tuple[list, list]:
    """Correlations and marginals of a weighted mixture of behavior classes."""
    es, ms = [0] * 4, [0] * 4
    for code, w in zip(codes, weights):
        a1, a2, b1, b2 = _class_signs(int(code))
        for j, (a, b) in enumerate(((a1, b1), (a1, b2), (a2, b1), (a2, b2))):
            es[j] += w * a * b
        for j, v in enumerate((a1, a2, b1, b2)):
            ms[j] += w * v
    return es, ms


def _facet_signs(rng) -> list[int]:
    """Signs of one CHSH facet: one term negated, then an overall sign."""
    neg = int(rng.integers(4))
    overall = 1 if rng.integers(2) else -1
    return [overall * (-1 if j == neg else 1) for j in range(4)]


def exact_statistics(rng, feasible: bool) -> tuple[list[Fraction], list[Fraction]]:
    if feasible:
        k = int(rng.integers(2, 7))
        codes = rng.choice(16, size=k, replace=False)
        raw = [int(v) for v in rng.integers(1, 10, size=k)]
        weights = [Fraction(v, sum(raw)) for v in raw]
        return _mixture_statistics(codes, weights)
    # zero marginals and one facet summing magnitudes of at least 5/8 each
    denominator = int(rng.choice([8, 12, 30, 97]))
    low = -(-5 * denominator // 8)
    magnitudes = [Fraction(int(v), denominator) for v in rng.integers(low, denominator + 1, size=4)]
    es = [s * m for s, m in zip(_facet_signs(rng), magnitudes)]
    return es, [Fraction(0)] * 4


def float_statistics(rng, feasible: bool) -> tuple[list[float], list[float]]:
    if feasible:
        while True:
            k = int(rng.integers(2, 7))
            codes = rng.choice(16, size=k, replace=False)
            weights = [float(w) for w in rng.dirichlet(np.ones(k))]
            es, ms = _mixture_statistics(codes, weights)
            if gate.max_facet(es) <= 2 - FACET_MARGIN:
                return es, ms
    magnitudes = [float(v) for v in rng.uniform(0.55, 1.0, size=4)]
    es = [s * m for s, m in zip(_facet_signs(rng), magnitudes)]
    return es, [0.0] * 4


def parity_system(bc, rng, n_vars: int, satisfiable: bool):
    """Product constraints over n_vars distinct (party, angle) variables
    with a planted assignment. A contradictory system gets one more row:
    the product of two rows with the opposite target."""
    variables = [
        ("ABCD"[i % 4], round(0.05 * (i // 4) + float(rng.uniform(0.0, 0.04)), 9))
        for i in range(n_vars)
    ]
    planted = rng.choice([-1, 1], size=n_vars)
    groups = np.array_split(rng.permutation(n_vars), math.ceil(n_vars / 3))
    groups += [rng.choice(n_vars, size=4, replace=False) for _ in range(3)]
    rows = [
        (tuple(variables[i] for i in g), int(np.prod(planted[g]))) for g in groups
    ]
    if not satisfiable:
        (f1, t1), (f2, t2) = rows[0], rows[-1]
        rows.append((f1 + f2, -t1 * t2))
    return [bc.ghz.ProductConstraint(factors, target) for factors, target in rows], rows


class FineCheck(Workload):
    """`bellcheck fine-check` on exact statistics, half of them feasible."""

    name = "fine-check"
    kinds = ("fine_check",)
    tag = 6

    def _op(self, rng, feasible: bool) -> Op:
        es, ms = exact_statistics(rng, feasible)
        # the "=" form, because a value may start with "-"
        argv = ["fine-check", f"--correlations={_frac_text(es)}", f"--marginals={_frac_text(ms)}"]
        return Op(
            "fine_check", 1, lambda: cli_main(self.bc, argv),
            lambda text: gate.check_fine_check(self.bc, text, es, ms, feasible),
            ("fine_check", tuple(argv), feasible),
        )

    def round(self, r):
        rng = self.rng(r)
        return [self._op(rng, i % 2 == 0) for i in range(FINE_PER_ROUND)]

    def warm_up_ops(self):
        return [self._op(self.rng(WARMUP_ROUND), True)]


class JpFloat(Workload):
    """`jp_feasible` on float statistics, half of them feasible."""

    name = "jp-float"
    kinds = ("jp_float",)
    tag = 7

    def _op(self, rng, feasible: bool) -> Op:
        bc = self.bc
        es, ms = float_statistics(rng, feasible)
        stats = bc.BehaviorStatistics(bc.CorrelationTable(*es), *ms)
        return Op(
            "jp_float", 1, lambda: bc.jointprob.jp_feasible(stats),
            lambda result: gate.check_jp_float(bc, result, es, ms, feasible),
            ("jp_float", tuple(es), tuple(ms), feasible),
        )

    def round(self, r):
        rng = self.rng(r)
        return [self._op(rng, i % 2 == 0) for i in range(FLOAT_PER_ROUND)]

    def warm_up_ops(self):
        return [self._op(self.rng(WARMUP_ROUND), True)]


class GhzCheck(Workload):
    """`check_satisfiable` on one planted parity system of each size."""

    name = "ghz-check"
    kinds = ("ghz_check",)
    tag = 8

    def _op(self, rng, n_vars: int, satisfiable: bool) -> Op:
        bc = self.bc
        constraints, rows = parity_system(bc, rng, n_vars, satisfiable)
        return Op(
            "ghz_check", 1, lambda: bc.ghz.check_satisfiable(constraints),
            lambda result: gate.check_ghz(bc, result, constraints, n_vars, satisfiable),
            ("ghz_check", tuple(rows), satisfiable), info={"vars": n_vars},
        )

    def round(self, r):
        rng = self.rng(r)
        return [self._op(rng, v, (v + r) % 2 == 0) for v in GHZ_VARS]

    def warm_up_ops(self):
        return [self._op(self.rng(WARMUP_ROUND), GHZ_VARS[0], True)]

    def sweep_ops(self):
        rng = self.rng(WARMUP_ROUND)
        return [self._op(rng, v, v % 2 == 0) for v in GHZ_VARS]


#: workload name -> constructor taking (bc, seed)
WORKLOADS: dict[str, Callable] = {
    **{f"lhv-{m}": (lambda bc, seed, m=m: LhvRun(bc, seed, m)) for m in LHV_MODELS},
    **{cls.name: cls for cls in (QuantumRun, FineCheck, JpFloat, GhzCheck)},
}


def make(name: str, bc, seed: int) -> Workload:
    return WORKLOADS[name](bc, seed)


def sweep_ops(bc) -> list[Op]:
    """One small operation of every kind of every workload, at a fixed size.

    A traced run ends with this sweep so that every layer is timed on every
    workload; a layer the workload itself never calls reports the sweep's
    figure.
    """
    return [op for make_workload in WORKLOADS.values() for op in make_workload(bc, 0).sweep_ops()]
