"""Core value types shared by every other module.

All rates are in bits per channel use (log base 2).  Comparisons are always
parameterized by explicit tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ChannelParams:
    """Scalar Gaussian channel: transmit powers and the interference gain.

    p1 is the cognitive user's power, p2 the primary user's, and b the gain
    of the link from the cognitive transmitter to the primary receiver.  All
    three are linear (not dB) and must be nonnegative and finite.
    """

    p1: float
    p2: float
    b: float

    def __post_init__(self):
        for name in ("p1", "p2", "b"):
            value = _require_finite(name, getattr(self, name))
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class RatePair:
    """A point (r1, r2) in the rate plane, bits per channel use."""

    r1: float
    r2: float

    def __post_init__(self):
        for name in ("r1", "r2"):
            value = _require_finite(name, getattr(self, name))
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Pentagon:
    """One rate polytope {0 <= r1 <= r1_max, 0 <= r2 <= r2_max, r1+r2 <= sum_max}.

    Every closed-form region family produces these.  A negative bound marks
    the pentagon EMPTY (the parameter choice is simply an unused point of the
    union); bounds are never clamped to zero, which would silently fabricate
    a degenerate axis segment.  Two-constraint regions are encoded by setting
    r2_max = sum_max.  Redundant constraints are permitted.
    """

    r1_max: float
    r2_max: float
    sum_max: float

    def __post_init__(self):
        for name in ("r1_max", "r2_max", "sum_max"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    def is_empty(self) -> bool:
        """True iff any of the three bounds is negative."""
        return self.r1_max < 0.0 or self.r2_max < 0.0 or self.sum_max < 0.0

    def contains(self, pt: RatePair, tol: float = 0.0) -> bool:
        """True iff pt satisfies all three inequalities with slack >= -tol."""
        if tol < 0.0:
            raise ValueError(f"tol must be >= 0, got {tol!r}")
        return (
            pt.r1 <= self.r1_max + tol
            and pt.r2 <= self.r2_max + tol
            and pt.r1 + pt.r2 <= self.sum_max + tol
        )

    def vertices(self) -> list[tuple[float, float]]:
        """Corner points of the (non-empty) polytope, at most five.

        Raises ValueError on an empty pentagon.
        """
        if self.is_empty():
            raise ValueError("empty region has no vertices")
        a, b, s = self.r1_max, self.r2_max, self.sum_max
        pts = [(0.0, 0.0), (min(a, s), 0.0), (0.0, min(b, s))]
        if a + b > s:
            if 0.0 <= s - a <= b:
                pts.append((a, s - a))
            if 0.0 <= s - b <= a:
                pts.append((s - b, b))
        else:
            pts.append((a, b))
        return pts
