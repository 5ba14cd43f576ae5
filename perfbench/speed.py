"""Machine-speed probe that makes wall times comparable across runs on a shared host.

On a host shared with other tenants, the speed of the benchmark's core
drifts by tens of percent over minutes, and every wall time drifts with it.
``SpeedProbe`` times a fixed kernel every ``INTERVAL_S`` of wall time while
the workload runs, from a SIGALRM handler in the main thread.  The kernel
mixes what dyngames' hot paths do: small dense solves, small-array creation
and plain Python arithmetic.  A step's wall time divided by the kernel's mean
time during that step (10% trimmed) and multiplied by ``NOMINAL_PROBE_S`` is
its time at a fixed nominal speed: the drift shared by kernel and workload
cancels.  Interleaved for 200 s with slices of the three workloads on a shared
2-core x86-64 virtual machine, this cut the spread of 13 s windows from
17-24% to 6-8%.  Time spent inside the kernel is tracked so callers can take
it out of their step times.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Round value near the kernel's time on the shared 2-core x86-64 virtual
# machine the first baseline was taken on, so nominal seconds are close to
# wall seconds there.
NOMINAL_PROBE_S = 3.0e-3
TRIM = 0.1
MIN_SAMPLES = 5

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
_b = _rng.standard_normal(6)


def probe_once() -> float:
    """Run the fixed kernel once; return its wall time."""
    t0 = time.perf_counter()
    x = _b.copy()
    for _ in range(70):
        x = np.linalg.solve(_A, x + _b)
        x = x / (1.0 + float(np.max(np.abs(x))))
    y = np.zeros(1)
    for k in range(180):
        z = np.array([y[0] + 0.05 * (1.0 - y[0]), k * 1e-3])
        if not np.all(np.isfinite(z)):
            raise FloatingPointError("probe kernel diverged")
        y = 0.99 * z[:1]
    s = 0
    for i in range(15_000):
        s += (i * i) % 7
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """NOMINAL_PROBE_S over the trimmed mean of kernel times."""
    ordered = sorted(samples)
    cut = int(TRIM * len(ordered))
    return NOMINAL_PROBE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


class SpeedProbe:
    """Times ``probe_once`` periodically while active (a context manager)."""

    def __init__(self):
        self.times: list[float] = []  # when each sample started
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time spent inside the handler

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(probe_once())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        probe_once()  # warm-up: first calls pay one-time numpy costs
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def factor_between(self, t0: float, t1: float) -> float:
        """Speed factor from the samples taken in [t0, t1], or the nearest ones."""
        inside = [s for t, s in zip(self.times, self.samples) if t0 <= t <= t1]
        if len(inside) >= MIN_SAMPLES:
            return speed_factor(inside)
        mid = 0.5 * (t0 + t1)
        nearest = sorted(zip(self.times, self.samples), key=lambda ts: abs(ts[0] - mid))
        return speed_factor([s for _, s in nearest[:MIN_SAMPLES]])
