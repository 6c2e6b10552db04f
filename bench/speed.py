"""Host speed gauge: a fixed piece of interpreter work, timed between jobs.

The shared 2-vCPU host this benchmark was built on runs the same Python code
up to 1.5 times slower for stretches of seconds to minutes, depending on its
neighbours. Left alone, those stretches moved a 30 s run's raw job times by
10-25 % from run to run, more than any useful bound. So each loop times the
gauge every quarter second of job time, and job times are reported rescaled
to the gauge's nominal duration:

    scaled = raw * NOMINAL_NS / median(gauge samples around the job)

The gauge is benchmark code that no change to curvefam can speed up, so a
faster program still reads faster; what cancels is the host's speed. On this
host the gauge takes about NOMINAL_NS when the machine is quiet, so scaled
and raw times agree there. In a 300 s trace the gauge cut the spread between
30 s windows from 0.09-0.17 (raw) to 0.02-0.04 (scaled).
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_NS = 5_000_000
EVERY_NS = 250_000_000     # job time between two samples
SPAN = 2                   # samples on each side of a job that scale it


def _work() -> list:
    counts: dict = {}
    for i in range(20_000):
        k = i % 997
        counts[k] = counts.get(k, 0) + i * 3
    return sorted(counts.values())


def sample() -> int:
    """One timing of the gauge work, in ns."""
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0


def factor(samples) -> float:
    """Scale factor for work timed while these gauge samples were taken."""
    return NOMINAL_NS / statistics.median(samples)


class Gauge:
    """Gauge samples taken during a loop, each tagged with the jobs done."""

    def __init__(self):
        self.at: list = []
        self.ns: list = []

    def take(self, jobs_done: int, n: int = 1) -> None:
        for _ in range(n):
            self.at.append(jobs_done)
            self.ns.append(sample())

    def factor(self, job: int) -> float:
        """Scale factor for the job that started after `job` jobs were done."""
        k = bisect.bisect_right(self.at, job)
        return factor(self.ns[max(0, k - SPAN):min(len(self.ns), k + SPAN)])
