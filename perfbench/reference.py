"""A fixed reference computation that tracks the speed of the machine.

On a shared host the speed of a core drifts by 20-30% within minutes and
by as much between runs, as neighbours come and go, and CPU time drifts
with it (the process is not descheduled; each instruction just takes
longer).  No statistic taken inside one run removes a drift that outlasts
the run.  So the benchmark times this short loop while it measures, and
reports each timing scaled to a machine on which the loop takes
REF_NOMINAL_S:

    reported = measured * REF_NOMINAL_S / reference time measured meanwhile

During the timed loop the samples come from a SIGVTALRM handler, once per
REF_EVERY_S of the process's CPU time, so they also fall inside long calls
such as a whole scan; the time spent in the handler is taken back out of
the call it interrupted.  Each set-up time is scaled by samples taken
right after it in the same process.

One sample does a little of each kind of work the workloads do: big-field
and small-prime polynomial arithmetic, records written as JSON, fractions.
It runs with the garbage collector held off, so the program's heap does not
change it, and it does not depend on g2cert, so a change to the program
cannot move it.  It does not track every slowdown in proportion (see
NOTES.md).  Raw timings are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time
from fractions import Fraction

# A typical time of the loop on a 2-vCPU Xeon VM (2.1 GHz, Python 3.11), so
# that scaled timings read close to raw ones there.
REF_NOMINAL_S = 0.002
# The sampler times the loop once per this many seconds of CPU time.
REF_EVERY_S = 0.05
# Samples started within this many seconds of a timed call scale it.
REF_WINDOW_S = 0.5
# Samples taken right after each set-up, in the process that set up.
SETUP_REFS = 5

_P = 1099511627791  # a 40-bit prime
_F = (3, 1, 4, 1, 5, 9)  # x^6 = -(3 + x + 4x^2 + x^3 + 5x^4 + 9x^5)
_SMALL_P = 29989


def _field_poly(p: int, rounds: int) -> int:
    """Multiply-and-reduce of a degree-5 polynomial modulo a sextic over F_p."""
    g = [2, 7, 1, 8, 2, 8]
    for _ in range(rounds):
        prod = [0] * 11
        for i, a in enumerate(g):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        for k in range(10, 5, -1):
            c = prod[k] % p
            for j in range(6):
                prod[k - 6 + j] -= c * _F[j]
        g = [c % p for c in prod[:6]]
    return g[0]


def _records(n: int) -> int:
    """Scan-like records built, indexed and written as JSON."""
    rows = [
        {"p": 1000 + i, "class_A": "3a", "class_B": "6a", "order_A": i * 7919 % 1000003,
         "verdict": "Certified"}
        for i in range(n)
    ]
    by_p = {r["p"]: r for r in rows}
    return len(json.dumps(rows)) + len(by_p)


def _fractions(n: int) -> int:
    """Rational arithmetic with small heights."""
    x = Fraction(3, 7)
    for i in range(1, n):
        x = x * x + Fraction(i, 7 * i + 1)
        x = Fraction(x.numerator % 100003, x.denominator % 100003 or 1)
    return x.numerator


def reference_work() -> None:
    """One sample: a little of each kind of work the workloads do.

    Big-field polynomial arithmetic as in certify's order descent, small-
    prime polynomial arithmetic as in the scan's DDF, records written as
    JSON as by the scan, and fractions as in reduce; each takes about a
    quarter of the time.  The collector is held off, so the program's heap
    does not change the sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _field_poly(_P, 40)
        _field_poly(_SMALL_P, 60)
        _records(300)
        _fractions(65)
    finally:
        if enabled:
            gc.enable()


def reference_s() -> float:
    """Wall seconds of one run of the reference loop."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Sampler:
    """Times the reference loop from a CPU-time signal while a loop of calls runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self.busy:  # the timer fired again while a sample ran
            return
        self.busy = True
        t0, c0 = time.perf_counter(), time.thread_time()
        reference_work()
        self.starts.append(t0)
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.thread_time() - c0)
        self.busy = False

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._sample()

    def mark(self) -> int:
        return len(self.starts)

    def spent(self, mark: int) -> tuple[float, float]:
        """(wall, CPU) seconds the handler took since mark."""
        return sum(self.wall[mark:]), sum(self.cpu[mark:])

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the median sample started within REF_WINDOW_S of [t0, t1].

        With no sample in the window, the nearest one stands in.
        """
        lo = bisect.bisect_left(self.starts, t0 - REF_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + REF_WINDOW_S)
        near = self.wall[lo:hi] or [self.wall[min(lo, len(self.wall) - 1)]]
        return REF_NOMINAL_S / statistics.median(near)
