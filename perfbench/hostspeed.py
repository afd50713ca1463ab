"""Host-speed probe: scales measured times to a steady host speed.

The shared machine this benchmark was calibrated on changes speed by up
to 1.7x, in phases that last from under a second to about a minute, and
CPU time drifts with wall time, so neither clock alone gives steady
numbers.  While a pass runs, a SIGALRM handler times a small fixed kernel
every INTERVAL_S seconds.  The kernel is exact polynomial arithmetic of
the kind cliffpoly does, written in refalg.py, and depends neither on the
seed nor on cliffpoly.  Each operation's time, less the probes that ran
inside it, is then scaled by REFERENCE_S over the mean probe time around
it: the time the operation would take on a host where the kernel takes
REFERENCE_S.

Measured with ten fresh cold verify_report(3, 3, "all") processes, the
interquartile range over the median of the pass time was 0.16 unscaled
and 0.03 scaled.
"""

from __future__ import annotations

import gc
import signal
import time
from random import Random

import refalg as ra

INTERVAL_S = 0.1
# probes that start this close to an operation's ends give its host speed;
# the speed phases seldom last less than this
WINDOW_S = 0.25
# median kernel time on the calibration machine (CPython 3.11, shared
# 2-vCPU x86_64 virtual machine), over two minutes of back-to-back runs
REFERENCE_S = 0.0061
BURST = 9

_POLY = ra.random_poly(4, (3,), range(5), 30, Random(0))


def kernel_s() -> float:
    """Seconds one run of the probe kernel takes, with the garbage collector off.

    With it off the probe does not pay for collecting the heap that the
    measured code left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        ra.laplacian(ra.add(_POLY, ra.xwedge(ra.dirac(_POLY, 4), 4)), 4)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst_speed() -> float:
    """Host speed factor from BURST back-to-back kernel runs (their median)."""
    times = sorted(kernel_s() for _ in range(BURST))
    return REFERENCE_S / times[BURST // 2]


class Sampler:
    """Times the kernel every INTERVAL_S seconds between start() and stop()."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, seconds)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, kernel_s()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(seconds in [start, end] not spent probing, host speed factor around it)."""
        inside = sum(d for s, d in self.samples if start <= s <= end)
        near = [d for s, d in self.samples if start - WINDOW_S <= s <= end + WINDOW_S]
        if not near:
            raise RuntimeError("no host-speed probe ran near an operation")
        return end - start - inside, REFERENCE_S * len(near) / sum(near)
