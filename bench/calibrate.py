"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the speed of the same work drifts by up to 2x
within seconds (other tenants, frequency changes).  A run therefore times
a fixed kernel about once a second and rescales every measured duration to
a machine on which the kernel takes its reference time:

    reference seconds = measured seconds * reference / kernel seconds

where the kernel time is interpolated between the samples around the
measurement.  In-process work is calibrated by exact rational elimination
and tuple/dict work, the operations the library spends its time in; CLI
commands by starting a bare interpreter.  Neither kernel touches the
library, so a change to the library moves the rescaled times exactly as it
moves the raw ones; only the machine's drift cancels.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

INTERVAL_S = 1.0      # wall time between calibration samples
REPEATS = 3           # kernel runs per sample; the median is kept
# kernel times on the reference machine
PYTHON_REFERENCE_S = 0.0025
START_REFERENCE_S = 0.045


def python_kernel() -> int:
    """Fixed work: Gauss-Jordan elimination of a 6x7 rational matrix, then
    tuple-keyed dictionary updates."""
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]
         for _ in range(6)]
    for c in range(6):
        p = next(r for r in range(c, 6) if m[r][c])
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [v / piv for v in m[c]]
        for r in range(6):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts: dict = {}
    for i in range(3000):
        key = tuple(range(i % 17, i % 17 + 5))
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def start_kernel(cwd, env) -> int:
    """Start and end a bare interpreter, as every CLI command does."""
    return subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env,
                          check=True, timeout=60).returncode


class Calibration:
    """Kernel timings through a run, and the rescaling they imply."""

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        kernel()    # the first run pays one-time costs; keep it out

    def sample(self):
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.kernel()
            runs.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def maybe_sample(self):
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, at: float) -> float:
        """The reference time over the kernel time interpolated at ``at``."""
        i = bisect.bisect_left(self.times, at)
        if i == 0:
            k = self.kernel_s[0]
        elif i == len(self.times):
            k = self.kernel_s[-1]
        else:
            t0, t1 = self.times[i - 1], self.times[i]
            w = (at - t0) / (t1 - t0)
            k = (1 - w) * self.kernel_s[i - 1] + w * self.kernel_s[i]
        return self.reference_s / k

    def speed(self) -> float:
        """Mean factor over the run (1.0 on the reference machine)."""
        return statistics.fmean(self.reference_s / k for k in self.kernel_s)
