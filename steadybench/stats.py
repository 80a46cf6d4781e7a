"""The quartile spread the benchmark's bounds are set against."""

from __future__ import annotations

import statistics


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them (the
    default exclusive method); a single value has no spread.
    """
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0
