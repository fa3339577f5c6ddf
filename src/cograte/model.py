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


def require_nonnegative(name: str, value: float) -> float:
    """value as a float; ValueError unless it is finite and >= 0.  Every
    tolerance is checked so too: each comparison with a NaN slack fails."""
    value = _require_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def _check_received_power(p1: float, p2: float, b: float) -> None:
    """Refuse gains and powers for which a region family would overflow a float.

    Past b*b, b*b*p1 and the received total, the largest products the
    families form are own*relayed <= p1**2/4 (g3p) and (c_tot - c_priv)**2
    <= 4*p1*p2 (bcdms; co1 takes sqrt(p1*p2)); g3p's r2 argument is a sum
    of squares no larger than 1 + p1/4 + total.  Since total >= p2 + 1,
    8*(1 + p1)*max(p1, total) bounds each of them with a factor of at least
    2 to spare for roundoff, so no family overflows when it is finite.
    """
    b2 = b * b
    amplitude = b * math.sqrt(p1) + math.sqrt(p2)
    total = amplitude * amplitude + b2 * p1 + 1.0
    largest = 8.0 * (1.0 + p1) * max(p1, total)
    if not all(math.isfinite(v) for v in (b2, b2 * p1, total, largest)):
        raise ValueError(
            f"received power overflows at p1={p1:g}, p2={p2:g}, b={b:g}: b*b, "
            f"b*b*p1, total = (b*sqrt(p1) + sqrt(p2))**2 + b*b*p1 + 1 and "
            f"8*(1 + p1)*max(p1, total) must be finite"
        )


@dataclass(frozen=True)
class ChannelParams:
    """Scalar Gaussian channel: transmit powers and the interference gain.

    p1 is the cognitive user's power, p2 the primary user's, and b the gain
    of the link from the cognitive transmitter to the primary receiver.  All
    three are linear (not dB), nonnegative and finite (-0 is stored as 0),
    with a received power that no region family overflows (_check_received_power).
    """

    p1: float
    p2: float
    b: float

    def __post_init__(self):
        for name in ("p1", "p2", "b"):
            # -0.0 + 0.0 is 0.0, so -0 prints, and names files, as 0 does
            value = require_nonnegative(name, getattr(self, name)) + 0.0
            object.__setattr__(self, name, value)
        _check_received_power(self.p1, self.p2, self.b)


@dataclass(frozen=True)
class RatePair:
    """A point (r1, r2) in the rate plane, bits per channel use."""

    r1: float
    r2: float

    def __post_init__(self):
        for name in ("r1", "r2"):
            object.__setattr__(self, name, require_nonnegative(name, getattr(self, name)))


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
        tol = require_nonnegative("tol", tol)
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
