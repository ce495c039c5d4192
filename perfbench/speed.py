"""Host-speed sampling, so that timings are comparable across a shared host.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.5x over minutes as its other tenants come and go; a pass measured at
3.2 s in one minute measures 2.2 s a few minutes later, with the same code
and inputs.  Medians over a run cannot remove a drift that outlasts the run.

So every timed interval is also measured in the host's current speed: while
an interval runs, a ``SIGALRM`` timer interrupts the process every
``INTERVAL_S`` and runs a fixed pure-Python reference kernel (tuples, dicts,
sets and a sort, the mix the library itself runs), recording how long the
kernel took.  An interval's *reference time* is its own time (the kernel's
time taken out) scaled by ``NOMINAL_S`` / the mean kernel time sampled
inside it: the time it would take on a host where one kernel call takes
exactly ``NOMINAL_S``.  Every time metric of ``--trace 0`` is reported in
reference seconds; raw seconds go to the run record.  The kernel is the
benchmark's own code, so a change to the library moves the reference time
exactly as much as it moves the raw time on a steady host.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.025
KERNEL_N = 600  # about 1 ms per call on the 2-vCPU Xeon host the bounds were set on
NOMINAL_S = 0.001
WARMUP_CALLS = 20


def kernel(n: int = KERNEL_N) -> int:
    """Fixed work: tuple building and hashing, dict and set updates, a sort."""
    counts, seen, acc = {}, set(), 0
    for i in range(n):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0) + i
        if key in seen:
            acc += key[0] * key[1] - key[2]
        else:
            seen.add(key)
        acc ^= hash(key) & 1023
    return acc + len(sorted(counts, key=lambda k: (k[2], -k[0])))


class Sampler:
    """Samples the kernel's time every ``INTERVAL_S`` between ``start`` and
    ``stop``; ``samples`` holds (start, seconds) of each call."""

    def __init__(self):
        self.samples = []
        self._previous = None
        self._running = False

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        """Warm the kernel up, take a first sample and start the timer."""
        for _ in range(WARMUP_CALLS):
            kernel()
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer and take a last sample; a second call does nothing."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
            self._running = False
            self._sample(None, None)

    def window(self, a: float, b: float):
        """(kernel seconds spent inside [a, b), mean kernel time there).

        An interval too short to hold a sample takes the mean of the
        samples next to it on either side; ``start`` and ``stop`` each take
        one, so an interval between them always has a neighbour."""
        inside = [d for t, d in self.samples if a <= t < b]
        if inside:
            return sum(inside), statistics.fmean(inside)
        before = [d for t, d in self.samples if t < a][-1:]
        after = [d for t, d in self.samples if t >= b][:1]
        return 0.0, statistics.fmean(before + after)


def reference(seconds: float, kernel_mean: float) -> float:
    """``seconds`` measured while one kernel call took ``kernel_mean``,
    in reference seconds."""
    return seconds * NOMINAL_S / kernel_mean
