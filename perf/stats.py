"""Sample statistics shared by the harness, perf.repeat and the tests."""

from __future__ import annotations

import statistics
from typing import Iterable, Optional, Sequence

__all__ = ["percentile", "supported_percentile", "summarize",
           "quartile_spread", "hist_quantile_us", "median", "ratio"]

# the ladder the percentile rule picks from: (percentile, samples
# beyond it per thousand)
PERCENTILES = ((50.0, 500), (90.0, 100), (99.0, 10), (99.9, 1))


def median(values: Iterable[float]) -> float:
    """Median, or 0.0 of no samples (a layer that did nothing)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """*num* / *den*, or 0.0 when nothing was counted."""
    return num / den if den else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ranked = sorted(values)
    rank = max(1, -(-len(ranked) * pct // 100))    # ceil(n * pct / 100)
    return ranked[int(rank) - 1]


def supported_percentile(count: int) -> float:
    """The percentile rule: the highest percentile of the ladder that
    still has at least ten samples beyond it (the median always is)."""
    best = PERCENTILES[0][0]
    for pct, beyond_per_mille in PERCENTILES[1:]:
        if count * beyond_per_mille >= 10 * 1000:
            best = pct
    return best


def summarize(values: Sequence[float], tail_pct: float) -> dict:
    """Count, median and the fixed tail percentile of one sample set,
    plus whether the sample supports that tail under the rule."""
    if not values:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": tail_pct,
                "tail_supported": False}
    return {"n": len(values),
            "p50": percentile(values, 50.0),
            "tail": percentile(values, tail_pct),
            "tail_pct": tail_pct,
            "tail_supported": supported_percentile(len(values)) >= tail_pct}


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """(Q3 - Q1) / median, the driver's steadiness measure."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return None
    return (q3 - q1) / abs(median)


def hist_quantile_us(hist: Sequence[int], q: float) -> int:
    """Quantile of a log2-microsecond histogram (bucket *i* holds
    [2^i, 2^(i+1)) us), reported as the bucket's upper bound — the same
    convention ``repro.server.metrics`` uses for its own rows."""
    total = sum(hist)
    if total <= 0:
        return 0
    rank = q * total
    seen = 0
    for i, n in enumerate(hist):
        seen += n
        if seen >= rank:
            return 2 ** (i + 1) - 1
    return 2 ** len(hist) - 1
