"""Host speed: a fixed reference kernel that tracks how fast this host runs now.

The shared virtual CPUs this benchmark was built on run the same
single-threaded code up to 1.7x slower for seconds to minutes at a time.
The benchmark times this kernel next to what it measures and reports
times scaled to a host where one kernel pass takes REF_NOMINAL_S.  The
kernel spends about a quarter of its time on each kind of work the
workloads do: interpreted Python with dict updates, big-integer modular
powers, numpy passes over 42,001-entry arrays, and short-lived numpy
generators with small draws.  It never calls gapchain, so no change to
gapchain moves it.
"""

from __future__ import annotations

import time

import numpy as np

REF_NOMINAL_S = 0.03
_REF_ARRAY = np.linspace(0.0, 1.0, 42_001)
_REF_MODULUS = (1 << 420) + 12_345


def reference_pass() -> float:
    """Seconds one pass of the reference kernel took."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(50_000):
        acc += i * i % 7
        table[i & 255] = acc
    for k in range(18):
        acc += pow(3, _REF_MODULUS + k, _REF_MODULUS + 2) & 1
    for _ in range(220):
        acc += bool((_REF_ARRAY * _REF_ARRAY).any())
    for k in range(270):
        np.random.default_rng(k).integers(0, 100_000, size=30).sort()
    return time.perf_counter() - t0


def sample_host(samples: list[float], budget_s: float) -> None:
    """Append reference passes to samples until budget_s is spent (at least one)."""
    t0 = time.perf_counter()
    samples.append(reference_pass())
    while time.perf_counter() - t0 < budget_s:
        samples.append(reference_pass())
