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
pentagons.  Each PSD test keeps one contiguous run of the sorted c_priv grid
per (p1_priv, p2_priv), and r2 grows with c_priv, so that pentagon is found
by one binary search per (c_tot, p1_priv, p2_priv): O(n_grid**3 log n_grid)
work on (p1_priv, p2_priv) arrays, and the n_grid**4 split grid is never
formed.
"""

from __future__ import annotations

import numpy as np

from .gaussian import DEFAULT_GRID, _unit_grid, check_pentagon_budget
from .geometry import ConvexRegion, DEFAULT_DIRECTIONS, hull_of_slabs, intersect
from .model import ChannelParams, Pentagon

#: Default points per covariance-split dimension (c_tot, p1_priv, p2_priv
#: and c_priv; the 4-D grid of splits is never formed).
DEFAULT_COV_GRID = 41

_PSD_TOL = 1e-12


def co1_pentagon(ch: ChannelParams, rho: float) -> Pentagon:
    """Outer-bound pentagon at one correlation coefficient rho.

    r2_max equals sum_max (the bound constrains only R1 and the sum).
    """
    rho = float(rho)
    if not np.isfinite(rho) or rho < 0.0 or rho > 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho!r}")
    return Pentagon(*map(float, _co1_arrays(ch, rho)))


def _co1_arrays(ch: ChannelParams, rhos):
    p1, p2, b = ch.p1, ch.p2, ch.b
    r1 = 0.5 * np.log2(1.0 + (1.0 - rhos * rhos) * p1)
    s = 0.5 * np.log2(1.0 + b * b * p1 + p2 + 2.0 * rhos * b * np.sqrt(p1 * p2))
    return r1, s, s


def co1_region(
    ch: ChannelParams,
    n_rho: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the co1 pentagons over a uniform rho grid."""
    return hull_of_slabs(
        _co1_arrays(ch, _unit_grid(n_rho, "rho", "co1")), n_directions,
        provenance=f"co1(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def _run_top(q: np.ndarray, room: np.ndarray) -> np.ndarray:
    """Last index of the run of entries of q at most each room.

    q must not increase up to its first minimum and not decrease after it,
    so the entries at most a room are one contiguous run; one binary search
    past the minimum finds its top.  An empty run gives an index below the
    minimum's, -1 at the least, whose entry exceeds the room.
    """
    m = int(q.argmin())
    return m - 1 + np.searchsorted(q[m:], room, side="right")


def _bcdms_slab(ch: ChannelParams, n_grid: int):
    """Maximal bcdms pentagons of the covariance-split grid, as one slab.

    For fixed (p1_priv, c_tot) the r1 and sum bounds are fixed, and a
    pentagon grows with its r2 bound, so of all PSD-feasible (p2_priv,
    c_priv) splits only the largest r2 can reach the hull.  The slab holds
    one pentagon per (c_tot, p1_priv) with a feasible split, c_tot-major:
    at most n_grid**2.  Over the sorted c_privs the rounded c*c falls, then
    rises, and so does the rounded (c_tot - c)**2, so for each (p1_priv,
    p2_priv) each PSD test keeps one contiguous run of c_privs: the private
    run once, the common run once per c_tot.  The r2 bound grows with c_priv
    through rounded monotone steps, so over the feasible splits, the
    intersection of the two runs, it is largest at the lower of the two
    tops, and that top is feasible exactly when it passes both tests.  Each
    c_tot is one binary search per (p1_priv, p2_priv) and a few passes over
    those n_grid**2 pairs, O(n_grid**3 log n_grid) work in all, and no 3-D
    or 4-D grid is formed.
    """
    p1, p2, b = ch.p1, ch.p2, ch.b
    c_max = np.sqrt(p1 * p2)
    c_tots = np.unique(np.linspace(-c_max, c_max, n_grid))
    p1s = np.unique(np.linspace(0.0, p1, n_grid))
    p2s = np.unique(np.linspace(0.0, p2, n_grid))
    c_privs = np.unique(np.linspace(-c_max, c_max, n_grid))

    a = p1s[:, None]
    d = p2s[None, :]
    # relative to the power product, so large gains and tiny powers admit
    # no non-PSD split through roundoff slack
    tol = _PSD_TOL * p1 * p2
    priv_sq = c_privs * c_privs
    priv_room = a * d + tol
    priv_top = _run_top(priv_sq, priv_room)
    common_room = (p1 - a) * (p2 - d) + tol
    r1 = 0.5 * np.log2((p1 + 1.0) / (p1s + 1.0))
    # b*b*a + 2*b*c + d written as (b*sqrt(a) - sqrt(d))**2 + 2*b*(c +
    # sqrt(a*d)): both terms are nonnegative where the split is PSD, so no
    # digits cancel when b*b*a and d are large and close.  Roundoff and the
    # PSD slack can leave c + sqrt(a*d) a few ulps of a*d below 0 on the
    # boundary, which is clamped.
    sa = np.sqrt(p1s)[:, None]
    sd = np.sqrt(p2s)[None, :]
    cross = sa * sd
    base = 1.0 + (b * sa - sd) ** 2
    spread = (b * np.sqrt(p1) - np.sqrt(p2)) ** 2
    s = 0.5 * np.log2(1.0 + spread + 2.0 * b * (c_tots + c_max))
    rows = np.empty((c_tots.size, p1s.size), dtype=bool)
    best = np.empty(rows.shape)
    for i, ct in enumerate(c_tots):
        common_sq = (ct - c_privs) ** 2
        top = np.minimum(priv_top, _run_top(common_sq, common_room))
        ok = (priv_sq[top] <= priv_room) & (common_sq[top] <= common_room)
        ok.any(axis=1, out=rows[i])
        arg = c_privs[top] + cross
        np.maximum(arg, 0.0, out=arg)
        arg *= 2.0 * b
        arg += base
        np.where(ok, arg, -np.inf).max(axis=1, out=best[i])
    # log2 is monotone, so it is taken once per kept pentagon; boolean
    # indexing keeps the c_tot-major order
    return (np.broadcast_to(r1, rows.shape)[rows], 0.5 * np.log2(best[rows]),
            np.broadcast_to(s[:, None], rows.shape)[rows])


def bcdms_region(
    ch: ChannelParams,
    n_grid: int = DEFAULT_COV_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the broadcast-channel bound over a PSD-filtered covariance-split grid."""
    if n_grid < 2:
        raise ValueError(f"covariance grid needs at least 2 points, got {n_grid}")
    # about the entries the run search reads: one PSD test per (c_tot,
    # p1_priv, p2_priv); in a Python int, as a numpy integer would wrap
    check_pentagon_budget("bcdms", int(n_grid) ** 3)
    return hull_of_slabs(
        _bcdms_slab(ch, n_grid),
        n_directions,
        provenance=f"bcdms(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def co2_region(
    ch: ChannelParams,
    n_rho: int = DEFAULT_GRID,
    n_grid: int = DEFAULT_COV_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
    co1: ConvexRegion | None = None,
    bcdms: ConvexRegion | None = None,
) -> ConvexRegion:
    """Intersection of co1_region and bcdms_region.

    A caller that already built either parent at these grids passes it as
    co1 or bcdms, and it is not built again.
    """
    return intersect(
        co1 if co1 is not None else co1_region(ch, n_rho, n_directions),
        bcdms if bcdms is not None else bcdms_region(ch, n_grid, n_directions),
        provenance=f"co2(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )
