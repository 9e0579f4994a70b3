"""The percentile rule of the choosing-metrics guide."""

from __future__ import annotations

__all__ = ["tail_percentile"]

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(num_samples: int) -> float | None:
    """The highest tail percentile a sample of this size supports.

    Report the median and the highest percentile that has at least ten
    samples beyond it.  Returns ``None`` when even the 75th percentile has
    fewer than ten samples above it.
    """
    for q in _TAILS:
        if num_samples * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES:
            return q
    return None
