"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math

#: Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reportable only with this many samples beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly above the q-th percentile's position."""
    return n - 1 - math.floor((n - 1) * q / 100.0) if n else 0


def highest_reportable(n: int):
    """Highest percentile of PERCENTILES with MIN_TAIL samples beyond it."""
    ok = [q for q in PERCENTILES if samples_beyond(n, q) >= MIN_TAIL]
    return ok[-1] if ok else None


def median(values) -> float:
    return percentile(values, 50.0)
