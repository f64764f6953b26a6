"""The host's speed while a call runs, for scaling the call's wall time.

The 2-CPU host the benchmark was built on is shared.  Other tenants' load
slows this process by up to half: the host flips between a fast and a slow
state every 50-100 ms, and the share of time it spends slow drifts over
seconds.  Raw wall times of the same code therefore spread by a third
between runs.

A ``Sampler`` measures that speed during the call itself.  A real-time
interval timer interrupts the call every ``PERIOD_S``; the signal handler
times a fixed ~1 ms kernel of the benchmark's own (``kernel``; no tropsdp
code, so no change to tropsdp moves it) and returns.  The host's average
speed over the call, relative to its fast state, is the mean of
``PROBE_REF_S / d`` over the kernel timings d (work per second is what a
uniform sample in time averages).  ``scaled`` turns the call's wall time,
less the time spent in the handler, into the time it would take at that
reference speed.
"""

from __future__ import annotations

import json
import signal
import time
from fractions import Fraction

# What one kernel run takes in the fast state of the host the bounds were
# set on (Intel Xeon, 2.0 GHz, Python 3.11): the 2nd percentile of 12 s of
# back-to-back runs.
PROBE_REF_S = 0.00071
PERIOD_S = 0.05


def kernel() -> None:
    """Interpreter work like tropsdp's: arithmetic in the standard library's
    Fraction type, which tropsdp computes in, and a JSON round trip of a
    small pencil-like object.  On the host above, op times of all three
    workloads moved in proportion to this kernel's time (log-log slope
    0.93-1.09); a tight integer loop moved less than the ops did."""
    acc = Fraction(0)
    for i in range(1, 160):
        a = Fraction(i % 97 + 1, i % 89 + 2)
        acc = max(acc - a, a) if i % 3 else acc + a
    for _ in range(12):
        obj = json.loads(json.dumps(_SAMPLE))
        sorted(entry["val"] for entry in obj["entries"])


_SAMPLE = {"entries": [{"i": i, "j": i + 1, "sign": "-", "val": f"{i}/7"}
                       for i in range(12)]}


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def speed(timings: list) -> float:
    """Mean speed over the timings, as a share of the reference speed."""
    return sum(PROBE_REF_S / d for d in timings) / len(timings)


class Sampler:
    """Times the kernel every PERIOD_S of wall time while the block runs.

    ``timings`` holds the kernel times and ``spent`` the seconds spent in
    the handler, which the caller takes off the block's wall time.  Not
    reentrant; installs and then restores the SIGALRM handler."""

    def __init__(self):
        self.timings = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        self.timings.append(timed_kernel())
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self.timings, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, seconds: float) -> float:
        """Wall seconds of the block, less the handler's, at reference
        speed.  A block too short to be sampled is timed once more now."""
        timings = self.timings or [timed_kernel()]
        return (seconds - self.spent) * speed(timings)

