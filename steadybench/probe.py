"""Machine-speed probe: fixed work timed before and after a workload.

Recorded so a reader can tell box drift from a program change.  It is
never a metric, never a gate and never a divisor.
"""

from __future__ import annotations

import time

#: Fixed sizes; changing them makes old records incomparable.
LOOP_ITERATIONS = 2_000_000
KERNEL_ELEMENTS = 1 << 20


def python_loop_seconds() -> float:
    """Seconds for a fixed pure-Python accumulate loop."""
    began = time.perf_counter()
    total = 0
    for value in range(LOOP_ITERATIONS):
        total += value ^ (value >> 3)
    return time.perf_counter() - began


def numpy_kernel_seconds() -> float | None:
    """Seconds for a fixed numpy sort + searchsorted, or None without numpy."""
    try:
        import numpy as np
    except ImportError:
        return None
    values = np.random.default_rng(12345).integers(0, 1 << 40, KERNEL_ELEMENTS)
    began = time.perf_counter()
    np.searchsorted(np.sort(values), values[::7])
    return time.perf_counter() - began


def machine_probe() -> dict:
    """Both probe timings as one record."""
    return {
        "python_loop_s": python_loop_seconds(),
        "numpy_kernel_s": numpy_kernel_seconds(),
    }
