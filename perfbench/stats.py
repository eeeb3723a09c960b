"""Order statistics for the benchmark's timing metrics.

Percentiles are nearest-rank over the sorted samples, computed in integer
arithmetic so that e.g. p99 of 1200 samples is always rank 1188.  A tail
percentile is reported only where at least :data:`MIN_BEYOND` samples lie
beyond it; otherwise the tail falls back to the median.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

#: samples that must lie strictly beyond a reported tail percentile
MIN_BEYOND = 10

#: candidate tail percentiles, highest first, as (numerator, denominator)
TAIL_LADDER: Tuple[Tuple[int, int], ...] = (
    (999, 1000),
    (99, 100),
    (95, 100),
    (90, 100),
    (75, 100),
)

MEDIAN = (1, 2)


def rank(fraction: Tuple[int, int], n: int) -> int:
    """1-based nearest rank of a percentile among ``n`` sorted samples."""
    numerator, denominator = fraction
    return max(1, -(-numerator * n // denominator))


def percentile(samples: Sequence[float], fraction: Tuple[int, int]) -> float:
    """Nearest-rank percentile; ``samples`` need not be sorted."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[rank(fraction, len(ordered)) - 1]


def tail_fraction(n: int) -> Tuple[int, int]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Falls back to the median when ``n`` is too small for any ladder entry
    (fewer than 40 samples).
    """
    for fraction in TAIL_LADDER:
        if n - rank(fraction, n) >= MIN_BEYOND:
            return fraction
    return MEDIAN


def label(fraction: Tuple[int, int]) -> str:
    """``(99, 100)`` -> ``"p99"``, ``(999, 1000)`` -> ``"p99.9"``."""
    value = 100.0 * fraction[0] / fraction[1]
    return f"p{value:g}"


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median and tail of a sample set, with the tail's percentile and n."""
    fraction = tail_fraction(len(samples))
    return {
        "p50": percentile(samples, MEDIAN),
        "tail": percentile(samples, fraction),
        "tail_percentile": label(fraction),
        "n": len(samples),
    }
