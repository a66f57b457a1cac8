"""Host-speed reference for the timed loop.

On a shared host the speed of a core swings for minutes at a time as other
tenants come and go: a ``stream_doubling`` call took 3.4 s for two minutes
and then 2.0 s for three, with nothing else running in the machine. A fixed
reference kernel, run right before and right after each timed call in the
same process, measures the host's speed at that moment; the benchmark
reports call times rescaled to the speed at which the kernel takes
``REF_S`` seconds. The kernel is the benchmark's own code, so a change to
the program moves the call time and not the reference.

The kernel is interpreter-bound, a Python loop over small NumPy operations,
like the per-point updates of the streaming workload, whose call time it
tracks best: over five minutes of back-to-back calls, the spread (IQR over
median) of 8-call medians fell from 0.26 to 0.03 with the rescaling.
"""
from __future__ import annotations

import time

import numpy as np

# About the kernel's time on an unloaded core of a 4-core 2.0 GHz Xeon VM.
REF_S = 0.1

_rng = np.random.default_rng(0)
_CENTERS = _rng.standard_normal((200, 7))
_POINTS = _rng.standard_normal((8000, 7))


def reference_s() -> float:
    """Seconds the reference kernel takes now."""
    t = time.perf_counter()
    acc = 0
    for p in _POINTS:
        acc += int(((_CENTERS - p) ** 2).sum(1).argmin())
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t
