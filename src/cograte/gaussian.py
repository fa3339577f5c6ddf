"""Closed-form Gaussian rate-region families and the high-interference capacity.

Each family maps a point of its parameter grid to one pentagon; regions are
convex hulls of those pentagons over the grid.  The families are:

* ``ga`` / ``gb`` -- the two dirty-paper-coding orders of the full
  rate-splitting scheme (three resp. two free parameters) whose union hull
  is the ``g`` region;
* ``g1`` -- the same scheme with the common layer removed (beta pinned 0);
* ``g2`` -- superposition-only coding (one parameter);
* ``g3`` -- common message dirty-paper coded against the primary signal,
  with a free precoding coefficient ``lam``;
* ``g3p`` -- ``g3`` at the rate-maximizing coefficient, evaluated in closed
  form; this family equals the capacity region when the interference gain
  lies in [1, b_star(ch)].

All parameters are power splits in [0, 1]; alpha divides the cognitive
power between its own message (alpha) and relaying the primary's (1-alpha).
Every family hands its bounds to ``geometry.hull_of_slabs``: the one-parameter
families as one slab, ``g`` and ``g1`` as slabs of whole alpha rows, each
joining one running prune before the next is evaluated, so their memory is
bounded by one slab and the survivors so far.
"""

from __future__ import annotations

import numpy as np

from .geometry import ConvexRegion, DEFAULT_DIRECTIONS, hull_of_slabs
from .model import ChannelParams, Pentagon

#: Default number of grid points per sweep parameter.
DEFAULT_GRID = 201

#: Default points per parameter of the three-parameter family g (and the
#: CLI's for g): 101**3 is about 1M pentagons, 201**3 would be 8.1M.
DEFAULT_G_GRID = 101

#: Most pentagons one slab of the rate-splitting family holds: the family
#: is evaluated and pruned slab by slab, so this bounds its memory.
_SLAB_PENTAGONS = 2**16


def _check_unit(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _check_log_args(*args: np.ndarray) -> None:
    # The closed forms keep every log argument >= 1; anything smaller means
    # the formula was fed out-of-contract inputs.
    for a in args:
        if np.any(np.asarray(a) < 1.0 - 1e-12):
            raise FloatingPointError("log argument fell below 1 in a closed form")


def _hl2(x) -> np.ndarray:
    return 0.5 * np.log2(x)


def _ga_arrays(ch: ChannelParams, alpha, beta, theta):
    p1, p2, b = ch.p1, ch.p2, ch.b
    own_c = alpha * beta * p1          # common layer of the own message
    own_p = alpha * (1.0 - beta) * p1  # private layer of the own message
    rl_coh = (1.0 - alpha) * theta * p1          # relayed, coherently combined
    rl_dpc = (1.0 - alpha) * (1.0 - theta) * p1  # relayed, dirty-paper coded
    b2 = b * b
    cross = (np.sqrt(p2) + b * np.sqrt(rl_coh)) ** 2
    den2 = b2 * own_p + b2 * rl_dpc + 1.0

    a_r1a = 1.0 + own_c / (own_p + (1.0 - alpha) * p1 + 1.0)
    a_r1b = 1.0 + own_p / (rl_dpc + 1.0)
    a_r2a = 1.0 + cross / den2
    a_r2b = 1.0 + b2 * rl_dpc
    a_sum = 1.0 + (cross + b2 * own_c) / den2
    _check_log_args(a_r1a, a_r1b, a_r2a, a_r2b, a_sum)

    r1 = _hl2(a_r1a) + _hl2(a_r1b)
    r2 = _hl2(a_r2a) + _hl2(a_r2b)
    s = _hl2(a_sum) + _hl2(a_r1b) + _hl2(a_r2b)
    return r1, r2, s


def _gb_arrays(ch: ChannelParams, alpha, beta):
    p1, p2, b = ch.p1, ch.p2, ch.b
    own_c = alpha * beta * p1
    own_p = alpha * (1.0 - beta) * p1
    relayed = (1.0 - alpha) * p1
    b2 = b * b
    cross = (b * np.sqrt(relayed) + np.sqrt(p2)) ** 2
    den2 = 1.0 + b2 * own_p

    a_r1a = 1.0 + own_c / (1.0 + own_p + relayed)
    a_r1b = 1.0 + own_p
    a_r2 = 1.0 + cross / den2
    a_sum = 1.0 + (cross + b2 * own_c) / den2
    _check_log_args(a_r1a, a_r1b, a_r2, a_sum)

    r1 = _hl2(a_r1a) + _hl2(a_r1b)
    r2 = _hl2(a_r2)
    s = _hl2(a_sum) + _hl2(a_r1b)
    return r1, r2, s


def _g2_arrays(ch: ChannelParams, alpha):
    p1, p2, b = ch.p1, ch.p2, ch.b
    own = alpha * p1
    relayed = (1.0 - alpha) * p1
    cross = (b * np.sqrt(relayed) + np.sqrt(p2)) ** 2

    a_r1 = 1.0 + own / (1.0 + relayed)
    a_r2 = 1.0 + cross
    a_sum = 1.0 + cross + b * b * own
    _check_log_args(a_r1, a_r2, a_sum)
    return _hl2(a_r1), _hl2(a_r2), _hl2(a_sum)


def _g3_arrays(ch: ChannelParams, alpha, lam):
    p1, p2, b = ch.p1, ch.p2, ch.b
    own = alpha * p1
    relayed = (1.0 - alpha) * p1
    lam2 = 1.0 + lam * lam
    # lam2*(p1 + 1) - (sqrt(own) + lam*sqrt(relayed))**2 and lam2*total -
    # (b*sqrt(own) + lam*(sqrt(p2) + b*sqrt(relayed)))**2 as sums of squares
    den = lam2 + (np.sqrt(relayed) - lam * np.sqrt(own)) ** 2
    total = (b * np.sqrt(relayed) + np.sqrt(p2)) ** 2 + b * b * own + 1.0
    r1 = _hl2((p1 + 1.0) / den)
    r2 = _hl2(lam2 + (np.sqrt(p2) + b * np.sqrt(relayed) - lam * b * np.sqrt(own)) ** 2)
    s = _hl2(total)
    return r1, r2, s


def _g3p_arrays(ch: ChannelParams, alpha):
    p1, p2, b = ch.p1, ch.p2, ch.b
    own = alpha * p1
    relayed = (1.0 - alpha) * p1
    lam = np.sqrt(own * relayed) / (own + 1.0)
    lam2 = 1.0 + lam * lam
    total = (b * np.sqrt(relayed) + np.sqrt(p2)) ** 2 + b * b * own + 1.0
    r1 = _hl2(1.0 + own)
    # g3's r2, where sqrt(p2) + b*sqrt(relayed) - lam*b*sqrt(own) simplifies
    r2 = _hl2(lam2 + (np.sqrt(p2) + b * np.sqrt(relayed) / (own + 1.0)) ** 2)
    s = _hl2(total)
    return r1, r2, s


def _capacity_arrays(ch: ChannelParams, alpha):
    p1, p2, b = ch.p1, ch.p2, ch.b
    own = alpha * p1
    relayed = (1.0 - alpha) * p1
    r1 = _hl2(1.0 + own)
    s = _hl2((b * np.sqrt(relayed) + np.sqrt(p2)) ** 2 + b * b * own + 1.0)
    return r1, s.copy(), s


def g3_pentagon(ch: ChannelParams, alpha: float, lam: float) -> Pentagon:
    """Pentagon of the precoded-common-message scheme at one (alpha, lam).

    The coefficient lam is unbounded above; poor choices make the first bound
    negative, which marks the pentagon EMPTY rather than clamping.
    """
    a = _check_unit("alpha", alpha)
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0.0:
        raise ValueError(f"lam must be a finite nonnegative real, got {lam!r}")
    r1, r2, s = _g3_arrays(ch, a, lam)
    return Pentagon(float(r1), float(r2), float(s))


def lambda_opt(ch: ChannelParams, alpha: float) -> float:
    """Precoding coefficient that maximizes the first g3 bound at this alpha."""
    a = float(_check_unit("alpha", alpha))
    return float(np.sqrt(a * (1.0 - a)) * ch.p1 / (a * ch.p1 + 1.0))


def b_star(ch: ChannelParams) -> float:
    """Upper end of the interference-gain range where g3p is the capacity."""
    return float(np.sqrt((ch.p1 + ch.p2 + 1.0) / (ch.p1 + 1.0)))


def b_condition(ch: ChannelParams, alpha: float) -> float:
    """Largest interference gain at which the middle g3p bound stays loose
    for this particular alpha; its minimum over alpha (at alpha=0) is b_star."""
    a = float(_check_unit("alpha", alpha))
    return float(np.sqrt((ch.p1 + ch.p2 + a * ch.p1 * ch.p2 + 1.0) / (ch.p1 + 1.0)))


def _unit_grid(n: int, name: str) -> np.ndarray:
    if n < 2:
        raise ValueError(f"{name} grid needs at least 2 points, got {n}")
    return np.linspace(0.0, 1.0, n)


def _rate_split_slabs(ch: ChannelParams, alphas, betas, thetas):
    """ga and gb bounds over whole alpha rows, as (r1, r2, s) slabs of flat arrays.

    A slab holds as many rows as fit in _SLAB_PENTAGONS (at least one).
    theta is irrelevant once alpha reaches 1 (no relayed power), so an
    alpha=1 row is generated with a single theta to avoid duplicates.
    """
    rows = max(1, _SLAB_PENTAGONS // (betas.size * (thetas.size + 1)))
    for lo in range(0, alphas.size, rows):
        a = alphas[lo:lo + rows]
        parts = (
            _ga_arrays(ch, a[a < 1.0][:, None, None], betas[None, :, None],
                       thetas[None, None, :]),
            _ga_arrays(ch, a[a == 1.0][:, None], betas[None, :], 0.0),
            _gb_arrays(ch, a[:, None], betas[None, :]),
        )
        flat = [[x.ravel() for x in np.broadcast_arrays(*part)] for part in parts]
        yield tuple(np.concatenate(bounds) for bounds in zip(*flat))


def g_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_G_GRID,
    n_beta: int = DEFAULT_G_GRID,
    n_theta: int = DEFAULT_G_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the full rate-splitting family: both coding orders, all splits."""
    alphas = _unit_grid(n_alpha, "alpha")
    betas = _unit_grid(n_beta, "beta")
    thetas = _unit_grid(n_theta, "theta")
    return hull_of_slabs(
        _rate_split_slabs(ch, alphas, betas, thetas),
        n_directions,
        provenance=f"g(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def g1_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_theta: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the rate-splitting family without a common layer (beta = 0)."""
    alphas = _unit_grid(n_alpha, "alpha")
    thetas = _unit_grid(n_theta, "theta")
    return hull_of_slabs(
        _rate_split_slabs(ch, alphas, np.zeros(1), thetas),
        n_directions,
        provenance=f"g1(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def g2_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the superposition-only family."""
    alphas = _unit_grid(n_alpha, "alpha")
    return hull_of_slabs(
        [_g2_arrays(ch, alphas)], n_directions,
        provenance=f"g2(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def g3p_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the precoded-common-message family at the optimal coefficient."""
    alphas = _unit_grid(n_alpha, "alpha")
    return hull_of_slabs(
        [_g3p_arrays(ch, alphas)], n_directions,
        provenance=f"g3p(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def capacity_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the two-constraint capacity pentagons over alpha."""
    alphas = _unit_grid(n_alpha, "alpha")
    return hull_of_slabs(
        [_capacity_arrays(ch, alphas)], n_directions,
        provenance=f"capacity(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )
