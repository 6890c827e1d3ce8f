"""Small statistics helpers used across the experiments.

Dependency-free implementations of the three summaries the experiment
harness needs: percentiles with linear interpolation (E8's 95th percentile
of the working-set ratio), five-number ``describe``
summaries (tables throughout), and the least-squares slope of ``y`` against
``log2 x`` — the empirical check behind every ``O(log n)`` claim the paper
makes (heights, Lemmas 4-5; AMF rounds, Theorem 3; routing distances).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

__all__ = ["describe", "percentile", "log2_fit_slope"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be between 0 and 100")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q / 100
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1 - weight) + ordered[high] * weight)


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Mean / min / max / median / p95 summary of ``values``."""
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "median": 0.0, "p95": 0.0}
    return {
        "count": float(len(values)),
        "mean": sum(values) / len(values),
        "min": float(min(values)),
        "max": float(max(values)),
        "median": percentile(values, 50),
        "p95": percentile(values, 95),
    }


def log2_fit_slope(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of ``y`` against ``log2(x)``.

    Used to check ``O(log n)`` scaling claims empirically: if ``y`` grows
    logarithmically in ``x``, the points ``(x, y)`` lie on a line in
    ``(log2 x, y)`` space and the slope is the constant in front of the log.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = [math.log2(x) for x, _ in points]
    ys = [y for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        raise ValueError("x values must not be all equal")
    return numerator / denominator
