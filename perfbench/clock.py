"""Timing on a host whose speed changes while the benchmark runs.

The cores are shared. The same one-epoch fit took 4.4 s of CPU time in one
minute and 6.7 s in the next, and wall time adds the host's steal time on
top. The host changes speed every few seconds, and hands out the core in
slices of about 4 ms, so one short kernel run says little and many say a
lot.

So a fixed calibration kernel runs at most every CALIBRATION_EVERY seconds:
between operations, and inside long operations after calls to the
workload's checkpoint functions. The kernel uses numpy and builtins but no
code of the package, so no change to the package moves it.

An interval's *reference time* is its CPU time, minus the kernel runs inside
it, scaled by REFERENCE_KERNEL_S / (mean CPU time of the kernel runs inside
it and within CALIBRATION_WINDOW of it). That is the time the work would
take at the speed where the kernel takes REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import bisect
import functools
import time
from contextlib import contextmanager

import numpy as np

CALIBRATION_EVERY = 0.1        # seconds of wall time between kernel runs
CALIBRATION_WINDOW = 0.25      # kernel runs this close to an interval count for it
REFERENCE_KERNEL_S = 0.0045    # kernel CPU time that defines the reference speed


class Calibration:
    """The kernel: interpreter work, small numpy calls and a BLAS product,
    the three kinds of work the workloads do. It is the same on every
    workload."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(32, 200))
        self._b = rng.normal(size=(200, 512))
        self._kernel()     # the first run in a process pays numpy's first-call costs
        self.starts: list[float] = []      # wall time at the start of each kernel run
        self.ends: list[float] = []        # ... and at its end
        self.kernel_s: list[float] = []    # CPU seconds of that run

    def _kernel(self):
        table = {}
        for i in range(2000):
            table[str(i)] = i
        v = np.ones(64)
        for _ in range(1000):
            v = np.tanh(v * 0.5 + 0.1)
        for _ in range(10):
            self._a @ self._b

    def run(self, force: bool = False):
        """Run the kernel if CALIBRATION_EVERY has passed since the last run."""
        start = time.perf_counter()
        if force or not self.ends or start - self.ends[-1] >= CALIBRATION_EVERY:
            cpu = time.process_time()
            self._kernel()
            self.kernel_s.append(time.process_time() - cpu)
            self.starts.append(start)
            self.ends.append(time.perf_counter())

    @contextmanager
    def inside(self, checkpoints):
        """Also calibrate after calls of each ``(owner, attribute)`` in
        ``checkpoints``, for operations too long to calibrate only at their
        ends. A call that is not due costs one clock read."""
        saved = []
        for owner, attr in checkpoints:
            original = getattr(owner, attr)

            @functools.wraps(original)
            def checkpoint(*args, _original=original, **kwargs):
                try:
                    return _original(*args, **kwargs)
                finally:
                    self.run()

            saved.append((owner, attr, original))
            setattr(owner, attr, checkpoint)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def around(self, start: float, end: float) -> tuple[range, range]:
        """Kernel runs inside [start, end], and those within CALIBRATION_WINDOW
        of it (at least the last before and the first after)."""
        first = bisect.bisect_left(self.starts, start)
        stop = max(first, bisect.bisect_right(self.ends, end))
        lo = min(bisect.bisect_left(self.starts, start - CALIBRATION_WINDOW), first - 1)
        hi = max(bisect.bisect_right(self.ends, end + CALIBRATION_WINDOW), stop + 1)
        return range(first, stop), range(max(lo, 0), min(hi, len(self.ends)))


class Timings:
    """CPU and wall seconds of successive intervals. The run has one thread,
    so CPU time is the time the work needs on one core."""

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self._cpu: list[float] = []
        self._spans: list[tuple[float, float]] = []

    def __len__(self):
        return len(self._cpu)

    @contextmanager
    def measure(self, calibrate_first: bool = False):
        self.calibration.run(force=calibrate_first)
        cpu, start = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self._cpu.append(time.process_time() - cpu)
            self._spans.append((start, time.perf_counter()))

    def _net(self):
        """(CPU, wall, kernel mean) of each interval, kernel runs taken out.
        Run the calibration once more after the last interval first."""
        cal = self.calibration
        for cpu, (start, end) in zip(self._cpu, self._spans):
            inside, near = cal.around(start, end)
            yield (cpu - sum(cal.kernel_s[i] for i in inside),
                   end - start - sum(cal.ends[i] - cal.starts[i] for i in inside),
                   sum(cal.kernel_s[i] for i in near) / len(near))

    def reference(self) -> list[float]:
        """Reference seconds of each interval."""
        return [cpu * REFERENCE_KERNEL_S / kernel for cpu, _, kernel in self._net()]

    def cpu(self) -> list[float]:
        return [cpu for cpu, _, _ in self._net()]

    def wall(self) -> list[float]:
        return [wall for _, wall, _ in self._net()]
