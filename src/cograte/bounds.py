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
slack).  A split is the total cross-covariance c_tot plus the private-layer
covariance (p1_priv, p2_priv, c_priv); it is feasible when the private and
the common covariances are both positive semidefinite.  Rates follow the
scalar reductions along the receive vectors h1 = (1, 0) and h2 = (b, 1).
Only the largest-r2 pentagon of each (p1_priv, c_tot) reaches the hull: the
others lie inside it, so the hull gets one slab of at most n_grid**2
pentagons.
"""

from __future__ import annotations

import numpy as np

from .gaussian import DEFAULT_GRID
from .geometry import ConvexRegion, DEFAULT_DIRECTIONS, hull_of_slabs, intersect
from .model import ChannelParams, Pentagon

#: Default points per covariance-split dimension (4-D grid).
DEFAULT_COV_GRID = 41

_PSD_TOL = 1e-12


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
    return hull_of_slabs(
        [(r1, s, s)], n_directions,
        provenance=f"co1(P1={p1:g},P2={p2:g},b={b:g})",
    )


def _bcdms_slab(ch: ChannelParams, n_grid: int):
    """Maximal bcdms pentagons of the covariance-split grid, as one slab.

    For fixed (p1_priv, c_tot) the r1 and sum bounds are fixed, and a
    pentagon grows with its r2 bound, so of all PSD-feasible (p2_priv,
    c_priv) splits only the largest r2 can reach the hull.  The slab holds
    one pentagon per (c_tot, p1_priv) with a feasible split, c_tot-major:
    at most n_grid**2.  Each c_tot masks the 3-D private grid on its own,
    so the 4-D grid is never formed.
    """
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
    r1 = 0.5 * np.log2((p1 + 1.0) / (p1s + 1.0))
    # b*b*a + 2*b*c + d written as (b*sqrt(a) - sqrt(d))**2 + 2*b*(c +
    # sqrt(a*d)): both terms are nonnegative where the split is PSD, so no
    # digits cancel when b*b*a and d are large and close.  Roundoff and the
    # PSD slack can leave c + sqrt(a*d) a few ulps of a*d below 0 on the
    # boundary, which is clamped; non-PSD entries are masked out below.
    sa = np.sqrt(p1s)[:, None, None]
    sd = np.sqrt(p2s)[None, :, None]
    # in place: one grid-sized temporary instead of five
    r2_grid = c + sa * sd
    np.maximum(r2_grid, 0.0, out=r2_grid)
    r2_grid *= 2.0 * b
    r2_grid += 1.0 + (b * sa - sd) ** 2
    np.log2(r2_grid, out=r2_grid)
    r2_grid *= 0.5
    spread = (b * np.sqrt(p1) - np.sqrt(p2)) ** 2
    common_room = (p1 - a) * (p2 - d) + tol
    parts = []
    for ct in c_tots:
        ok = priv_psd & ((ct - c) ** 2 <= common_room)
        rows = np.any(ok, axis=(1, 2))
        r2 = np.max(r2_grid, axis=(1, 2), where=ok, initial=-np.inf)[rows]
        s = 0.5 * np.log2(1.0 + spread + 2.0 * b * (ct + c_max))
        parts.append((r1[rows], r2, np.full(r2.size, s)))
    return tuple(np.concatenate(bounds) for bounds in zip(*parts))


def bcdms_region(
    ch: ChannelParams,
    n_grid: int = DEFAULT_COV_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the broadcast-channel bound over a PSD-filtered covariance-split grid."""
    if n_grid < 2:
        raise ValueError(f"covariance grid needs at least 2 points, got {n_grid}")
    return hull_of_slabs(
        [_bcdms_slab(ch, n_grid)],
        n_directions,
        provenance=f"bcdms(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
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
