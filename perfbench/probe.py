"""Host-speed probe, timed just before every record of a pass.

On a shared host the speed of a core drifts by a third and more with the
load of other tenants, in phases from under a second to minutes, and the
slowdown is the same inside and outside the process, so CPU time does not
remove it.  The probe is a fixed piece of the kind of work braidkit does
(an interpreted small-integer loop, Fraction sums, big-integer products)
that never changes with the program.  A record's time multiplied by
REF_S over the median of the probes around it is its time at the
reference speed: a change to braidkit moves it, a change of host phase
does not.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# median probe time on the host the benchmark was defined on (2 vCPUs,
# Intel Xeon, Python 3.11.7); it only sets the scale of the reported times
REF_S = 0.0024
# a record is scaled by the median of the probes within HALF records of it
HALF = 2


def probe() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(8000):
        x += i * i % 7
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i)
    a = 3**6000
    for _ in range(10):
        a * (a + 1)
    return time.perf_counter() - start


@contextmanager
def before_each_record(times: list[float]):
    """Probe before every `build_record` call of a serial sweep, appending
    the probe times in record order; restore the attribute on exit."""
    import braidkit.sweep as sweep

    original = sweep.build_record

    def probed(task):
        times.append(probe())
        return original(task)

    sweep.build_record = probed
    try:
        yield
    finally:
        sweep.build_record = original


def scales(times: list[float]) -> list[float]:
    """Per record, REF_S over the median of the probes around it."""
    return [
        REF_S / statistics.median(times[max(0, i - HALF) : i + HALF + 1])
        for i in range(len(times))
    ]
