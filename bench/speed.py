"""The CPU's speed, sampled while a workload runs, to report times at a
fixed reference speed.

The shared host this benchmark was tuned on switches its CPU's speed by
up to half within a second and drifts by a third over minutes, so raw
times of the same code spread by about a quarter from run to run, at any
run length.  A ``Speedometer`` runs a small fixed probe from a timer
signal, in the benchmark's own thread, every ``INTERVAL`` seconds.  A
time measured over ``[a, b]`` is then reported as the time the same work
would take at the speed where one probe takes ``REF_S``: the interval,
less the time spent in the signal handler, times the mean of
``REF_S / probe`` over the probes taken during it.  The probe calls no
cfgzip code and works only on its own data, so it follows the host's
speed and not the program's.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

import numpy as np

_now = time.perf_counter

INTERVAL = 0.02
# Median probe time inside a decode stream on the 2-core machine the
# benchmark was tuned on; any constant serves, as long as it never changes.
REF_S = 5e-4
PROBE_ITEMS = 500


def probe() -> float:
    """Seconds to close a fixed set of PROBE_ITEMS items the way a chart
    parser does: tuples popped from an agenda, deduplicated in a set and
    filed in lists under a dict.  This is the kind of work the program's
    sweep and mask do, so the host's speed changes it in the same
    proportion; dict lookups alone moved less than the program did in
    the host's fast spells."""
    t0 = _now()
    items: set = set()
    agenda = [(0, 0, 0)]
    filed: dict = {}
    while agenda and len(items) < PROBE_ITEMS:
        item = agenda.pop()
        if item in items:
            continue
        items.add(item)
        a, b, c = item
        filed.setdefault(a % 37, []).append(item)
        agenda.append(((a * 7 + 1) % 997, b + 1, c))
        agenda.append(((a * 13 + 5) % 991, b, c + 1))
    return _now() - t0


class Speedometer:
    """Probe samples taken from SIGALRM between ``start`` and ``stop``.

    A sample is (end time, probe seconds, handler seconds).  The handler
    runs in the main thread between bytecodes, so it interrupts the timed
    work; ``scaled`` takes its time back out.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.probes: list[float] = []
        self.handler_s: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = _now()
        # The probe's garbage is freed as it returns; a collection set
        # off by it would scan the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        p = probe()
        if enabled:
            gc.enable()
        t1 = _now()
        self.ends.append(t1)
        self.probes.append(p)
        self.handler_s.append(t1 - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, a: float, b: float) -> float:
        """The interval ``[a, b]`` at reference speed.  The probes taken
        during it, and the one on each side, give its speed."""
        i = bisect.bisect_left(self.ends, a)
        j = bisect.bisect_right(self.ends, b)
        if not self.ends:
            raise RuntimeError("the speedometer took no samples")
        window = np.asarray(self.probes[max(i - 1, 0) : min(j + 1, len(self.ends))])
        active = (b - a) - sum(self.handler_s[i:j])
        return active * float(np.mean(REF_S / window))
