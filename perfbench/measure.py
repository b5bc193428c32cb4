"""Timing primitives: the host-speed probe, normalized op timing, summaries.

The hosts this benchmark runs on change speed by up to 1.8x for 0.5-2 s at
a time, and process CPU time stretches by the same factor as wall time.
So every CPU-bound op is timed between two runs of a fixed probe, and its
seconds are scaled by ``PROBE_REF_S / mean(probe before, probe after)``:
the op's time on a host whose probe takes exactly ``PROBE_REF_S``.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: Seconds one :func:`probe` takes on the reference host: about its median on
#: the 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, one BLAS thread) this
#: benchmark was tuned on, where it ranged from 7 to 12 ms over a day.  A
#: constant: it fixes the unit of every normalized time.
PROBE_REF_S = 0.0105

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def probe() -> float:
    """Fixed pure-Python plus numpy work (~10 ms); returns its seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    table: dict[int, int] = {}
    for i in range(5_000):
        table[i % 97] = table.get(i % 97, 0) + i
    m = _PROBE_MATRIX
    for _ in range(80):
        m = np.tanh(m @ _PROBE_MATRIX * 0.01) + _PROBE_MATRIX[::-1]
    v = np.zeros(64)
    for i in range(800):
        v[i % 64] += m[i % 64, 3]
    return time.perf_counter() - start


@dataclass
class OpClock:
    """Times ops between probes; keeps raw and normalized seconds."""

    raw_s: list[float] = field(default_factory=list)
    norm_s: list[float] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)
    #: ``PROBE_REF_S / mean(adjacent probes)`` of the latest op
    factor: float = 1.0

    def time(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` between two probes and return its value.

        An exception from ``fn`` propagates after the second probe and
        records no op time.
        """
        before = probe()
        start = time.perf_counter()
        try:
            value = fn()
            raw = time.perf_counter() - start
        finally:
            after = probe()
            self.probes_s.extend((before, after))
            self.factor = PROBE_REF_S / ((before + after) / 2.0)
        self.raw_s.append(raw)
        self.norm_s.append(raw * self.factor)
        return value

    def drop_last(self) -> None:
        """Forget the latest op's time (its output failed a check)."""
        self.raw_s.pop()
        self.norm_s.pop()


def host_factor(seconds: float = 1.0) -> tuple[float, list[float]]:
    """``PROBE_REF_S / mean probe`` over ``seconds`` of back-to-back probes.

    The probes are split evenly over every CPU this process may use: the
    CPUs of one host can run at different speeds at the same moment, and
    a multi-process load runs on all of them.
    """
    allowed = os.sched_getaffinity(0)
    probes: list[float] = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            end = time.perf_counter() + seconds / len(allowed)
            while time.perf_counter() < end:
                probes.append(probe())
    finally:
        os.sched_setaffinity(0, allowed)
    return PROBE_REF_S / statistics.fmean(probes), probes


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with 10 samples beyond it: ``(percentile, value)``.

    That is the 11th-largest sample, at percentile ``100 * (n - 10) / n``;
    unlike a fixed ladder (p90, p95, p99) it does not jump when the sample
    count crosses a rung.  With 10 samples or fewer it is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
