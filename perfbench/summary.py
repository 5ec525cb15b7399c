"""Summary statistics for per-pass samples."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

__all__ = ["median", "tail_percentile", "quartile_spread", "MIN_BEYOND"]

#: A reported tail percentile must have at least this many samples
#: above it.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return float(statistics.median(samples))


def tail_percentile(samples: Sequence[float],
                    min_beyond: int = MIN_BEYOND
                    ) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``min_beyond`` samples
    above it, as ``(percent, value)``; ``None`` when there are too few
    samples (fewer than ``min_beyond + 1``).

    With ``n`` sorted samples the value at 0-based rank ``n - 1 -
    min_beyond`` has exactly ``min_beyond`` ranks above it; it is the
    ``100 * (n - min_beyond) / n`` percentile.
    """
    n = len(samples)
    if n <= min_beyond:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - min_beyond) / n, float(ordered[n - 1 - min_beyond])


def quartile_spread(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(..., n=4)``)."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
