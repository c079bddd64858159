"""Order statistics the ledger reports: medians, quartiles, guarded percentiles."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

# A percentile is reported only when at least this many samples lie beyond
# it; with fewer, the figure is one or two outliers, not a property of the
# system (p50 needs 20 samples, p99 needs 1 000).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank), refusing thin tails."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must be inside (0, 100)")
    beyond = len(samples) * (100.0 - q) / 100.0
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
            f"{len(samples)} samples leave {beyond:g}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile_or_zero(samples: Sequence[float], q: float) -> float:
    """:func:`percentile`, or 0.0 where the workload has too few samples."""
    try:
        return float(percentile(samples, q))
    except ValueError:
        return 0.0


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles(n=4)``) of repeat samples."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    s = summary(samples)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else math.inf
