"""Times at a fixed host speed, measured with a reference kernel.

The 2-vCPU share of an Intel Xeon that this benchmark was defined on runs
Python at one of two speeds, about 1.8x apart, and switches between them
within a second; the share of time spent slow drifts over minutes, so a
pass took up to a third longer minutes later.  There is no steal time:
wall and CPU time slow alike.  So while the clock runs, an interval timer
interrupts the pass every ``PERIOD_S`` (set-up: ``SETUP_PERIOD_S``) and runs a fixed pure-Python kernel
(``kernel``, which imports nothing of the package).  Each stretch of work
between two samples counts ``REF_S`` over the kernel's time (the mean of
the speeds at its two ends), that is the seconds it would take with the
kernel running at ``REF_S``, its time on that host when fast.  The kernel's
own time is left out.  ``raw_s`` keeps the same work as the clock read it.

Comparisons across commits rest on the kernel, ``REF_S`` and the periods
staying as they are; changing any of them is a change of the benchmark.
"""

from __future__ import annotations

import signal
import time

REF_S = 0.001  # seconds the kernel takes on the host above when it runs fast
PERIOD_S = 0.05  # interval between samples; the kernel costs about 2% of a pass
SETUP_PERIOD_S = 0.01  # set-up lasts about 0.2 s, so it is sampled more often


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic, list and dict updates, calls."""
    counts = [0] * 256
    seen: dict[int, int] = {}
    acc = 0
    for i in range(3_000):
        v = (i * 7919 + acc) & 0xFFFF
        counts[v & 255] += 1
        if v & 3 == 0:
            seen[v] = i
        acc = (acc + max(v, counts[i & 255])) % 1_000_003
    return acc + len(seen)


def sample() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class RefClock:
    """Times the work between ``start`` and ``stop`` with kernel samples taken
    on ``SIGALRM``.

    Signal handlers run between bytecodes, so a long call into C delays a
    sample; the stretch before it is then longer and weighs more.  The
    clock owns ``SIGALRM`` and ``ITIMER_REAL`` while it runs.  With
    ``sampling`` off it samples only at ``start`` and ``stop``, so no
    sample falls inside a traced span.
    """

    def __init__(self, sampling: bool = True, period: float = PERIOD_S):
        self.sampling = sampling
        self.period = period
        self.raw_s = 0.0  # work time, kernel samples excluded
        self.wall_s = 0.0  # the same work at the reference speed
        self.samples: list[float] = []
        self._since = 0.0
        self._busy = False

    def start(self):
        kernel()  # warm the kernel outside any sample
        self.samples.append(sample())
        self._since = time.perf_counter()
        if self.sampling:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._close()

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._close()

    def _close(self):
        self._busy = True
        work = time.perf_counter() - self._since
        self.samples.append(sample())
        speed = (1 / self.samples[-2] + 1 / self.samples[-1]) / 2
        self.raw_s += work
        self.wall_s += work * REF_S * speed
        self._since = time.perf_counter()
        self._busy = False
