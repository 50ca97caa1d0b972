"""Host-speed sampling: a fixed probe timed 20 times a second during a run.

The machine shares its cores with other tenants.  Its speed for this
process changes by 20-30% between phases that last from seconds to minutes,
and a phase slows everything the process runs alike.  While a run is
measured, an interval timer interrupts it every INTERVAL_S and times a fixed
probe of small-array numpy work, the kind velobs' hot paths do.  Each timed
call is then scaled by REFERENCE_S / (mean probe time around the call): the
result is its duration on a host where the probe takes REFERENCE_S.  The
probe never runs velobs code, so a change to velobs cannot move it.  It adds
about 2% to every timed call, the same share on every run.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05

# probe timings this far before and after a call count for its speed
WINDOW_S = 0.5

# A round number for the reference host: the mean probe time was 1.0-1.3 ms
# on a 2-core Xeon (Sapphire Rapids, KVM), Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 1.0e-3

# share of the probe timings dropped at each end before averaging
TRIM = 0.1


def probe() -> float:
    x = np.array([0.3, -0.2])
    v = np.array([0.0, 0.1])
    for _ in range(50):
        c = math.cos(x[1])
        m = np.array([[2.0 + c, 0.3], [0.3, 1.0]])
        a = np.linalg.solve(m, -np.sin(x) - 0.1 * v)
        x = x + 1e-3 * v
        v = v + 1e-3 * a
    return float(x[0])


class HostSpeed:
    """Probe timings, (start, duration), taken while the context is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of the call that ran from t0 to t1, at the reference speed.

        Unscaled when no probe ran near the call (no sampling active).
        """
        near = sorted(dt for ts, dt in self.samples
                      if t0 - WINDOW_S <= ts <= t1 + WINDOW_S)
        if not near:
            return t1 - t0
        k = int(len(near) * TRIM)
        return (t1 - t0) * REFERENCE_S / statistics.fmean(near[k:len(near) - k])

    def mean_probe_s(self) -> float:
        return statistics.fmean(dt for _, dt in self.samples)
