"""Capacity outer bounds for the Gaussian channel.

Three constructions:

* ``co1`` -- a pentagon family over the transmit-correlation parameter rho;
  the bound is the hull of the union over rho in [0, 1].
* ``bcdms`` -- the rate region of the associated two-antenna broadcast
  channel with degraded message sets, gridded over Gaussian covariance
  splits (a common layer carrying both messages plus private layers).
* ``co2`` -- the set intersection of the two: the exact intersection of both
  parents' sampled halfplanes, with the support read back off its vertices.

The bcdms parameterization is a jointly Gaussian superposition whose total
covariance uses the full per-antenna powers (the common layer absorbs any
slack); rates follow the scalar reductions along the receive vectors
h1 = (1, 0) and h2 = (b, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import DEFAULT_GRID
from .geometry import (
    ConvexRegion,
    DEFAULT_DIRECTIONS,
    hull_of_pentagon_arrays,
    intersect,
)
from .model import ChannelParams, Pentagon

#: Default points per CovSplit dimension (4-D grid).
DEFAULT_COV_GRID = 41

_PSD_TOL = 1e-12


@dataclass(frozen=True)
class CovSplit:
    """One Gaussian covariance split of the two transmit signals.

    c_tot is the total cross-covariance; p1_priv, p2_priv and c_priv describe
    the private-layer covariance.  The private covariance must be positive
    semidefinite on its own; feasibility against a channel's power budget
    (total and common layers both PSD) is checked by ``feasible``.
    """

    c_tot: float
    p1_priv: float
    p2_priv: float
    c_priv: float

    def __post_init__(self):
        vals = (self.c_tot, self.p1_priv, self.p2_priv, self.c_priv)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"covariance entries must be finite, got {vals}")
        if self.p1_priv < 0.0 or self.p2_priv < 0.0:
            raise ValueError("private powers must be nonnegative")
        if self.c_priv**2 > self.p1_priv * self.p2_priv + _PSD_TOL:
            raise ValueError("private covariance is not positive semidefinite")

    def feasible(self, ch: ChannelParams, tol: float = _PSD_TOL) -> bool:
        """True when total and common covariances are PSD for this channel."""
        if self.p1_priv > ch.p1 + tol or self.p2_priv > ch.p2 + tol:
            return False
        if self.c_tot**2 > ch.p1 * ch.p2 + tol:
            return False
        c_com = self.c_tot - self.c_priv
        return c_com**2 <= (ch.p1 - self.p1_priv) * (ch.p2 - self.p2_priv) + tol


def co1_pentagon(ch: ChannelParams, rho: float) -> Pentagon:
    """Outer-bound pentagon at one correlation coefficient rho.

    r2_max equals sum_max (the bound constrains only R1 and the sum).
    """
    rho = float(rho)
    if not np.isfinite(rho) or rho < 0.0 or rho > 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
    p1, p2, b = ch.p1, ch.p2, ch.b
    r1 = 0.5 * np.log2(1.0 + (1.0 - rho * rho) * p1)
    s = 0.5 * np.log2(1.0 + b * b * p1 + p2 + 2.0 * rho * b * np.sqrt(p1 * p2))
    return Pentagon(float(r1), float(s), float(s))


def co1_region(
    ch: ChannelParams,
    n_rho: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the co1 pentagons over a uniform rho grid."""
    if n_rho < 2:
        raise ValueError(f"rho grid needs at least 2 points, got {n_rho}")
    rhos = np.linspace(0.0, 1.0, n_rho)
    p1, p2, b = ch.p1, ch.p2, ch.b
    r1 = 0.5 * np.log2(1.0 + (1.0 - rhos * rhos) * p1)
    s = 0.5 * np.log2(1.0 + b * b * p1 + p2 + 2.0 * rhos * b * np.sqrt(p1 * p2))
    return hull_of_pentagon_arrays(
        r1, s, s, n_directions,
        provenance=f"co1(P1={p1:g},P2={p2:g},b={b:g})",
    )


def bcdms_pentagon(ch: ChannelParams, split: CovSplit) -> Pentagon:
    """Pentagon of one covariance split of the broadcast-channel bound."""
    if not split.feasible(ch):
        raise ValueError("covariance split is infeasible for this channel")
    p1, p2, b = ch.p1, ch.p2, ch.b
    r1 = 0.5 * np.log2((p1 + 1.0) / (split.p1_priv + 1.0))
    priv = b * b * split.p1_priv + 2.0 * b * split.c_priv + split.p2_priv
    tot = b * b * p1 + 2.0 * b * split.c_tot + p2
    return Pentagon(
        float(r1),
        float(0.5 * np.log2(1.0 + priv)),
        float(0.5 * np.log2(1.0 + tot)),
    )


def bcdms_region(
    ch: ChannelParams,
    n_grid: int = DEFAULT_COV_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the broadcast-channel bound over a PSD-filtered CovSplit grid."""
    if n_grid < 2:
        raise ValueError(f"covariance grid needs at least 2 points, got {n_grid}")
    p1, p2, b = ch.p1, ch.p2, ch.b
    c_max = np.sqrt(p1 * p2)
    c_tots = np.unique(np.linspace(-c_max, c_max, n_grid))
    p1s = np.unique(np.linspace(0.0, p1, n_grid))
    p2s = np.unique(np.linspace(0.0, p2, n_grid))
    c_privs = np.unique(np.linspace(-c_max, c_max, n_grid))

    a = p1s[:, None, None]
    d = p2s[None, :, None]
    c = c_privs[None, None, :]
    # relative to the power product, so large gains and tiny powers admit
    # no non-PSD split through roundoff slack
    tol = _PSD_TOL * p1 * p2
    priv_psd = c * c <= a * d + tol
    r1_grid = np.broadcast_to(0.5 * np.log2((p1 + 1.0) / (a + 1.0)), priv_psd.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        # entries violating priv_psd may have a zero or negative log
        # argument; they are masked out below and never reach the hull
        r2_grid = 0.5 * np.log2(1.0 + b * b * a + 2.0 * b * c + d)

    r1_parts, r2_parts, s_parts = [], [], []
    for ct in c_tots:
        ok = priv_psd & ((ct - c) ** 2 <= (p1 - a) * (p2 - d) + tol)
        if not np.any(ok):
            continue
        s_val = 0.5 * np.log2(1.0 + b * b * p1 + 2.0 * b * ct + p2)
        r1_parts.append(r1_grid[ok])
        r2_parts.append(r2_grid[ok])
        s_parts.append(np.full(int(np.count_nonzero(ok)), s_val))
    if not r1_parts:
        raise ValueError("no feasible covariance split")
    return hull_of_pentagon_arrays(
        np.concatenate(r1_parts),
        np.concatenate(r2_parts),
        np.concatenate(s_parts),
        n_directions,
        provenance=f"bcdms(P1={p1:g},P2={p2:g},b={b:g})",
    )


def co2_region(
    ch: ChannelParams,
    n_rho: int = DEFAULT_GRID,
    n_grid: int = DEFAULT_COV_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Intersection of co1_region and bcdms_region."""
    return intersect(
        co1_region(ch, n_rho, n_directions),
        bcdms_region(ch, n_grid, n_directions),
        provenance=f"co2(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )
