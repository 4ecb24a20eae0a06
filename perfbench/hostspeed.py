"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: the same fixed loop
can take 1.4 times as long in one stretch of seconds as in the next.  A run's
median latency then says as much about the stretch it fell in as about the
program.  To take that drift out, the benchmark times a fixed calibration
kernel about four times a second, and scales the time of every operation by
``REFERENCE_S / kernel time`` over the stretch the operation ran in.  The
scaled figures are the times the operations would have taken on a host that
runs the kernel in ``REFERENCE_S``.  The kernel is part of the benchmark, not
of the program, so a change to the program moves the scaled figures and a
change in the host's speed does not.

During a run the kernel is started by a timer signal, so it also samples
the host inside calls that last seconds.  Python runs the handler in the
main thread between bytecodes: the kernel pauses the program rather than
competing with it, and its own time is taken out of the time of the call it
interrupted.

The kernel mixes two kinds of work the simulator does: an interpreted loop,
and vectorised passes over arrays of about a megabyte.  On the reference
host the two together tracked the drift of most of the workloads' calls
with slopes of 1.0-1.15 in log time, and of the memory-bound calls on a
2^24-entry table with a slope of 0.6.  A loop of numpy calls on tiny arrays
drifted about twice as much as the workloads, so the kernel leaves it out.  A sample is the fastest of
``REPEATS`` runs, which drops the runs that an interrupt or another process
cut into.  The raw timings are reported next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Kernel time (fastest of REPEATS) on the reference host, a 2-vCPU virtual
# machine with Python 3.11 and numpy 2.4, while a workload runs.
REFERENCE_S = 0.0026
REPEATS = 3
# Seconds between samples during a run.
INTERVAL_S = 0.25
# Resolution of the scaled-time integral.
GRID_S = 0.02


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._mid = rng.random(1 << 17)
        self._index = rng.integers(0, 1 << 17, size=1 << 16)
        # Output buffers, so that a sample allocates no memory.
        self._buf = np.empty_like(self._mid)
        self._gather = np.empty(self._index.size)
        self.starts: list[float] = []   # when each sample began and ended
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        for _ in range(3):  # warm caches and numpy's dispatch
            self._kernel()

    def _kernel(self) -> float:
        acc = 0
        for i in range(12000):
            acc += (i * 7) % 13
        mid, buf = self._mid, self._buf
        np.copyto(buf, mid)
        buf.sort()
        acc += float(np.take(mid, self._index, out=self._gather).sum())
        acc += float(np.exp(mid, out=buf).dot(mid))
        return acc

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.kernel_s.append(best)

    def start(self) -> None:
        """Sample now, then every INTERVAL_S until ``stop``."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factors(self, at) -> np.ndarray:
        """REFERENCE_S / kernel time at the times ``at``.

        Each sample is replaced by the median of it and its two neighbours,
        and the result is interpolated linearly between the samples.
        """
        k = self.kernel_s
        smooth = [statistics.median(k[max(0, i - 1):i + 2]) for i in range(len(k))]
        mid = (np.asarray(self.starts) + np.asarray(self.ends)) / 2.0
        return REFERENCE_S / np.interp(np.asarray(at, dtype=float), mid, smooth)

    def scale(self, t0, t1) -> tuple[np.ndarray, np.ndarray]:
        """Time of each interval [t0, t1] less the kernel's, raw and scaled.

        The scaled time integrates the factor over the interval, so an
        operation that ran through a slow stretch and a fast one is scaled
        by the speed of each part.
        """
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        s, e = np.asarray(self.starts), np.asarray(self.ends)
        # Kernel time before t: piecewise linear, rising during each sample.
        before = np.concatenate(([0.0], np.cumsum(e - s)))
        knots = np.column_stack((s, e)).ravel()
        level = np.column_stack((before[:-1], before[1:])).ravel()

        def program_before(t):
            return t - np.interp(t, knots, level)

        # Scaled program time before t, on a fine grid.
        grid = np.arange(s[0], e[-1] + GRID_S, GRID_S)
        steps = np.diff(program_before(grid)) * self.factors(grid[:-1] + GRID_S / 2)
        scaled_before = np.concatenate(([0.0], np.cumsum(steps)))
        raw = program_before(t1) - program_before(t0)
        scaled = np.interp(t1, grid, scaled_before) - np.interp(t0, grid, scaled_before)
        # The grid blurs the factor over a step; a short interval takes the
        # factor at its own midpoint instead.
        short = (t1 - t0) < 4 * GRID_S
        scaled[short] = raw[short] * self.factors((t0[short] + t1[short]) / 2.0)
        return raw, scaled

    def summary(self) -> dict:
        k = np.asarray(self.kernel_s)
        return {"samples": len(k), "reference_s": REFERENCE_S,
                "kernel_time_s": float(np.sum(np.asarray(self.ends) - self.starts)),
                "kernel_s_p10_p50_p90": [float(v) for v in np.percentile(k, [10, 50, 90])]}
