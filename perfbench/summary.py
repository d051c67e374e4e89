"""Order statistics for timing samples.

A timing is reported as its median and the highest percentile that still
has at least ten samples beyond it, together with the sample count.  With
fewer than 40 samples no such percentile exists and the tail is left out
rather than read off a handful of points.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples above it."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            return pct
    return None


def nearest_rank(sorted_xs, pct: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    # the small slack keeps float rounding in n * pct from adding a rank
    rank = max(1, math.ceil(len(sorted_xs) * pct / 100.0 - 1e-9))
    return sorted_xs[rank - 1]


def summarize(samples) -> dict:
    """Median, quartiles and tail of a non-empty sample list.

    Quartiles follow ``statistics.quantiles(xs, n=4)``; a single sample is
    its own quartiles.
    """
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples to summarize")
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    pct = tail_percentile(len(xs))
    return {
        "n": len(xs),
        "median": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "tail_pct": pct,
        "tail": nearest_rank(xs, pct) if pct is not None else None,
    }


def describe(name: str, unit: str, s: dict) -> str:
    """One human-readable line for a summary."""
    tail = (
        f"p{s['tail_pct']:g} {s['tail']:.6g}"
        if s["tail_pct"] is not None
        else "tail n/a (under 40 samples)"
    )
    return (
        f"{name}: median {s['median']:.6g} {unit}, "
        f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, {tail}, n={s['n']}"
    )
