"""Machine-speed calibration for the end-to-end throughput.

On a shared or virtual machine the speed of one core drifts by 20-30%
over tens of seconds, so no amount of repetition inside one run removes
it. The benchmark therefore times a fixed reference kernel between
operations and divides each operation's CPU time by the kernel's CPU time
around it: a calibrated rate is work done per reference-kernel time. CPU
time leaves out the bursts in which other tenants hold the core, which a
few milliseconds of kernel mostly miss while a call of a second absorbs
them. The kernel exercises the same kinds of work as bellcheck (Philox
draws, vector math, sorting, Fraction arithmetic, JSON) and never calls
bellcheck, so a change to bellcheck cannot move it.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from fractions import Fraction

import numpy as np

#: Seconds that turn a calibrated set-up time back into seconds: a set-up
#: time of k reference probes (see ``reference_probe``) is reported as
#: k * PROBE_NOMINAL_S, about what one probe takes on a 2-vCPU VM.
PROBE_NOMINAL_S = 0.15
#: At most one kernel sample per this many seconds of operations.
INTERVAL_S = 0.25
#: A sample is the fastest of this many kernel passes: a pass that another
#: tenant's burst slowed is dropped, while a drift of the machine's speed
#: slows every pass alike.
PASSES = 3
#: Arrays of 1-2 MB, past the per-core caches like bellcheck's own, since
#: memory contention slows such work more than cache-resident work.
_SIZE = 1 << 17


class Calibrator:
    """Kernel samples (CPU seconds) taken between single-threaded operations.

    ``kernel`` picks the reference. Over one four-minute trace on a 2-vCPU
    VM the machine sped up unevenly: the numpy part of the kernel by 20%,
    its interpreted part by 35%, cosine-sign `run` calls by 12% and decider
    calls by 27-29%. So the `run` workloads, which spend their time in
    numpy, take the numpy part alone (``"vector"``), and the decider
    workloads, which are mostly interpreted, take both parts (``"mixed"``),
    which matched their 27% closely.
    """

    def __init__(self, kernel: str = "mixed"):
        self.samples: list[float] = []
        self._data = np.random.default_rng(3).random(2 * _SIZE)
        self._last = -math.inf
        self._kernel = {"vector": self._vector_kernel, "mixed": self._mixed_kernel}[kernel]

    def _vector_part(self) -> None:
        u = np.random.Generator(np.random.Philox(7)).random(_SIZE)
        codes = ((np.cos(u * 2 * math.pi) >= 0).astype(np.uint8) << 1) | (u > 0.5)
        np.bincount(codes, minlength=4)
        np.sort(self._data)

    def _vector_kernel(self) -> None:
        """About 10 ms of vectorised numpy."""
        self._vector_part()

    def _mixed_kernel(self) -> None:
        """About 20 ms: half vectorised numpy, half interpreted Python."""
        self._vector_part()
        for _ in range(2):
            acc = Fraction(0)
            for i in range(1, 400):
                acc += Fraction(i, i + 7) * (1 if i % 3 else -1)
            rows = [sorted((i * j) % 97 for j in range(17)) for i in range(200)]
            json.dumps({str(i): row for i, row in enumerate(rows)}, sort_keys=True)

    def tick(self, force: bool = False) -> int:
        """Sample the kernel if INTERVAL_S has passed (or ``force``);
        returns the index of the latest sample."""
        if not self.samples:
            for _ in range(2 * PASSES):  # the first passes fault in fresh pages
                self._kernel()
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            passes = []
            for _ in range(PASSES):
                t0 = time.process_time()
                self._kernel()
                passes.append(time.process_time() - t0)
            self.samples.append(min(passes))
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Kernel seconds around an operation that followed sample
        ``index``: the median of that sample, the next and one more on
        each side, so that one odd sample does not move it."""
        return statistics.median(self.samples[max(0, index - 1):index + 3])


def reference_probe() -> None:
    """The reference for set-up time, run in a fresh process of its own:
    import numpy and run the kernel twice. It tracks what slows a fresh
    process (interpreter start, imports, page faults) better than the
    kernel alone does, and never touches bellcheck."""
    calibrator = Calibrator()
    calibrator._kernel()
    calibrator._kernel()
