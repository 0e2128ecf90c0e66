"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same Python code runs up to ~1.7x
slower for minutes at a time, and process CPU time inflates with wall time,
so neither can be steadied by taking more samples.  The benchmark therefore
times a fixed kernel next to every measurement and reports times at
reference speed: measured seconds * REFERENCE_S / mean kernel seconds.
The kernel is the benchmark's own code (exact rational elimination plus
tuple-keyed dict churn, the mix that dominates gmpi), so a change to gmpi
moves the reported times fully and a slow spell of the machine cancels out.

Operations last up to tens of seconds and the machine's speed changes within
them, so ``Probe`` also times the kernel on a wall-clock timer signal while
the operation runs, and takes the probes' own time out of the measurement.
The machine flips between a fast and a slow state several times a second, so
the kernel times have two modes: an operation runs at the time average of the
two speeds, which the mean of evenly spaced kernel times estimates and the
median does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Kernel seconds that define reference speed (its typical time on 2 shared
# x86-64 cores under Python 3.11); only a fixed scale for every reported time.
REFERENCE_S = 0.005
N = 10
CHURN = 2000
BETWEEN = 5         # kernel runs between two operations
INTERVAL_S = 0.2    # kernel period while an operation runs


def kernel() -> int:
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(N)]
            for i in range(N)]
    r = 0
    for c in range(N):
        piv = next((i for i in range(r, N) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(N):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    churn = {}
    for i in range(CHURN):
        churn[(i, i % 13, i % 7)] = (i,)
    return r + len(churn)


def kernel_seconds() -> float:
    """One timed kernel run.

    The cyclic garbage collector is off meanwhile: its passes scan whatever
    the benchmarked program left alive, which would tie the kernel's time
    to the program's heap instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Kernel timings before, during and after one measurement.

    Use as a context manager around the measured call; ``inside()`` is the
    time the in-flight probes took, to be taken out of the measurement, and
    ``finish()`` gives the factor from measured to reference seconds.
    ``on_probe``, if given, is called with the wall seconds of each
    in-flight probe.
    """

    def __init__(self, before: list[float], on_probe=None):
        self.readings = list(before)
        self._spans: list[tuple[float, float, float]] = []  # start, wall, cpu
        self._saved = None
        self._on_probe = on_probe

    def _on_timer(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.readings.append(kernel_seconds())
        self._spans.append((t0, time.perf_counter() - t0, time.process_time() - c0))
        if self._on_probe is not None:
            self._on_probe(self._spans[-1][1])

    def inside(self, t0: float, t1: float) -> tuple[float, float]:
        """Wall and CPU seconds the probes took between t0 and t1."""
        spans = [s for s in self._spans if t0 <= s[0] <= t1]
        return sum(s[1] for s in spans), sum(s[2] for s in spans)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def finish(self, after: list[float]) -> float:
        """Reference speed over the machine's speed across the measurement."""
        self.readings.extend(after)
        return REFERENCE_S / statistics.fmean(self.readings)


def warm_up() -> None:
    """Run the kernel untimed a few times.  Its first runs in a fresh process
    take up to twice as long as later ones, which would bias the first
    readings."""
    for _ in range(2 * BETWEEN):
        kernel()


def readings() -> list[float]:
    """Kernel times taken between two measurements."""
    return [kernel_seconds() for _ in range(BETWEEN)]
