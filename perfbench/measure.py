"""Small numeric helpers of the runner."""

from __future__ import annotations

import resource
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def rate(count: int, seconds: float) -> float:
    """Operations per second; the window must be positive."""
    if seconds <= 0.0:
        raise ValueError("rate over a non-positive window")
    return count / seconds


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
