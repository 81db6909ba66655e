"""Shared pytest configuration.

Hypothesis's default 200 ms per-example deadline turns into flaky
``DeadlineExceeded`` failures when the machine is loaded (CI, parallel
runs): the property tests here are deterministic, so wall-clock deadlines
add noise without catching anything.  Disable them globally; runaway
examples are still bounded by pytest-level timeouts.

Speed-ordering tests (one lane at least k times faster than another)
time both sides with :func:`cpu_best_of_3`.
"""

import time

import pytest
from hypothesis import settings

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture
def cpu_best_of_3():
    """Best-of-3 CPU seconds of ``fn()`` on the calling thread, and its
    last result.

    CPU time rather than wall time, so a busy host cannot inflate one
    side of a ratio; the minimum damps scheduler noise.  Thread time
    rather than process time: OpenBLAS helper threads spin-wait for a
    while after each numpy call, and process time bills that spin to
    whichever run happens to be measured (up to 2x on a 2-vCPU Linux
    host).
    """

    def measure(fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.thread_time()
            out = fn()
            best = min(best, time.thread_time() - t0)
        return best, out

    return measure
