"""Machine-speed probe: a fixed reference kernel timed alongside the workload.

The benchmark's host is a shared VM whose speed changes by up to 1.8x for
tens of seconds at a time, for interpreted Python and small numpy calls
alike, with no CPU steal to show for it.  Raw in-process latencies then
measure the host more than gdist.  So the worker times ``probe`` (pure
Python arithmetic plus 2x2 numpy algebra, the mix gdist's closed forms are
made of) every few milliseconds between operations, and ``scale`` gives an
operation the factor ``REF_PROBE_NS / probe time around it``.  A scaled
latency reads as the latency on a host where the probe takes
``REF_PROBE_NS``.  The probe does not call gdist, so a change to gdist moves
the scaled numbers in full.  ``run.SCALED`` names the workloads reported
scaled; the others report raw times and use the probe only as a record of
the host's speed.  Set-up interpreters probe once after their warm-up, and
cold CLI children at exit (``childprobe/sitecustomize.py``).
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: Probe time on the reference host: a 2-vCPU Xeon VM in its fast state.
REF_PROBE_NS = 120_000
#: Probes within this many ns either side of an operation set its scale.
WINDOW_NS = 250_000_000
#: Minimum gap between probes inside a closed loop of short operations.
GAP_NS = 2_000_000

_M = np.array([[2.0, 0.3], [0.3, 1.0]])


def probe() -> float:
    """The reference kernel: about 120 us on the reference host."""
    s = 0.0
    for i in range(200):
        s += math.sqrt(i + 1.0) * 1.0001
    a = _M
    for _ in range(10):
        a = a @ a / np.trace(a)
        s += np.linalg.det(a)
    return s


class SpeedLog:
    """Probe times of one process, and the scale they give an operation."""

    def __init__(self):
        self.t_ns: list[int] = []  # probe start times, increasing
        self.probe_ns: list[int] = []
        for _ in range(20):  # warm the probe's own code paths
            probe()

    def sample(self, n: int = 1) -> None:
        perf = time.perf_counter_ns
        for _ in range(n):
            start = perf()
            probe()
            self.t_ns.append(start)
            self.probe_ns.append(perf() - start)

    def tick(self) -> None:
        """In a closed loop: probe when GAP_NS has passed since the last probe.

        After a long gap (a slow operation) take a burst, so the scale of a
        long operation rests on more than one probe on each side.
        """
        now = time.perf_counter_ns()
        gap = now - self.t_ns[-1] if self.t_ns else None
        if gap is None or gap >= GAP_NS:
            self.sample(1 if gap is not None and gap < 20 * GAP_NS else 5)

    def scale(self, start_ns: int, ns: int) -> float:
        """REF_PROBE_NS over the median probe time around [start, start + ns]."""
        lo = bisect.bisect_left(self.t_ns, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.t_ns, start_ns + ns + WINDOW_NS)
        near = self.probe_ns[lo:hi]
        if not near:  # no probe in the window: the nearest one on each side
            near = self.probe_ns[max(lo - 1, 0) : lo + 1]
        return REF_PROBE_NS / statistics.median(near)

    def overall_scale(self) -> float:
        """REF_PROBE_NS over the median of all probe times."""
        return REF_PROBE_NS / statistics.median(self.probe_ns)

    def median_us(self) -> float:
        return statistics.median(self.probe_ns) / 1e3 if self.probe_ns else 0.0
