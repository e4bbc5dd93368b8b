"""Host-speed sampling, so that timings read the same on a slower or faster host.

On a shared machine the speed this process gets changes by up to 2x within a
minute, with other tenants' load.  A `Sampler` measures that speed while the
program runs: a SIGALRM timer interrupts the main thread every `INTERVAL_S`
and times `kernel()`, a fixed piece of pure-Python work that no fareyflow
change can touch.  A span of program time t, with the kernel timings c_i
sampled during it, is reported as

    t * mean(REF_S / c_i)

which is the time the span would have taken at the reference speed, the
speed at which `kernel()` takes `REF_S` seconds.  The time spent in the
interrupt itself is taken out of t.  The kernel is pure Python (big-integer
Euclid and float arithmetic), so it can run before numpy is imported, and
a tracer that wraps numpy never sees it.
"""

import signal
import time

REF_S = 0.001           # kernel() time at the reference speed
INTERVAL_S = 0.025      # one sample per 25 ms of wall time, about 4% of it


def kernel() -> float:
    """Seconds taken by a fixed piece of interpreter and big-integer work."""
    t0 = time.perf_counter()
    for r in range(15):
        a, b = 7 ** 300 + r, 5 ** 280 + 3
        while b:
            a, b = b, a % b
    x = 0.5
    for i in range(1500):
        x = x * 1.0000001 + i / (i + 1.0)
    return time.perf_counter() - t0


class Sampler:
    """Samples host speed while installed; use as a context manager.

    Every sample is (start, handler duration, kernel duration).  One sample is
    taken on entry, before anything is timed, so every span has at least one.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        c = kernel()
        self.samples.append((t0, time.perf_counter() - t0, c))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(program time, time at the reference speed) of the span t0..t1.

        Program time is t1 - t0 minus the interrupts inside the span.  The
        speed is the mean over the samples inside it, or over the latest
        sample before it when none fell inside.
        """
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        if not inside:
            inside = [max((s for s in self.samples if s[0] < t1), default=self.samples[0])]
        t = (t1 - t0) - sum(d for start, d, _ in inside if start >= t0)
        return t, t * sum(REF_S / c for _, _, c in inside) / len(inside)
