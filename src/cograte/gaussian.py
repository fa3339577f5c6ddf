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
families as the seed, ``g`` and ``g1`` as a coarse seed (at most SEED_GRID
points per parameter, ends included) and rows, a generator of slabs of
whole alpha rows, whose memory is bounded by the seed, one slab and the
pentagons that passed the seed's corner chain.  rows takes the block
screen on that chain, to screen each row slab before it is evaluated:
each ga log argument is monotone in theta, so at each (alpha, beta) a
block of consecutive thetas is bounded by its members' own float
expression at the block's two ends, and only the members of the blocks
whose bounding pentagon may reach the chain are evaluated.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import ConvexRegion, DEFAULT_DIRECTIONS, hull_of_slabs
from .model import ChannelParams, Pentagon

#: Default number of grid points per sweep parameter.
DEFAULT_GRID = 201

#: Default points per parameter of the three-parameter family g (and the
#: CLI's for g): 101**3 is about 1M pentagons, 201**3 would be 8.1M.
DEFAULT_G_GRID = 101

#: Most pentagons one region may evaluate, empty or not; every family
#: refuses a larger grid (check_pentagon_budget) before it evaluates any.
#: A one-parameter family keeps its pentagons whole and its support max is
#: O(P log P + D), so this bounds it alone: capacity at P2 = 0, 8,000,000
#: points and 4097 directions takes about 8 s and a 1.9 GB peak on a 2-vCPU
#: host.  For g, evaluated and screened in slabs, and bcdms, which keeps one
#: pentagon per (p1_priv, c_tot), it bounds work.  g counts its whole grid
#: and seed, though the block screen drops most of it on most channels, but
#: none at P2 = 0, b = 1, where g at 203 points, the most that fit, takes
#: about 8 s and 1.9 GB.  bcdms counts n_grid**3, about the entries its run
#: search reads.
MAX_PENTAGONS = 2**23

#: Most pentagons one slab of the rate-splitting family holds: the family
#: is evaluated and screened slab by slab, so this bounds its memory.  At
#: 2**16 glibc hands the slabs' freed temporaries back to the system and
#: faults them in again: a long-lived process made about 9,200 minor
#: faults per `figure fig3` round, against about 1,600 at 2**15, and ran
#: slower; with trimming and mmap thresholds raised both made none.
_SLAB_PENTAGONS = 2**15

#: Most points per parameter of the seed slab that the rate-splitting
#: families g and g1 evaluate before their grid (ends included).
SEED_GRID = 11

#: Theta steps per block of the rate-splitting grid's block screen: a
#: block is the _THETA_BLOCK + 1 thetas from one block end to the next at
#: one (alpha, beta), and shares its ends with its neighbours.  Its
#: bounding pentagon is evaluated first, and its members only when the
#: seed's chain does not drop it.  3, 5 and 6 were no faster at 101**3.
_THETA_BLOCK = 4

#: Largest share of a row slab's theta blocks the block screen keeps and
#: still pays for.  At 101**3, hull screening included, bounding a slab's
#: blocks costs about 0.3 of evaluating its rows whole and evaluating the
#: kept members about 2.0 times the kept share of it, so past a share of
#: 0.49 the rows are faster evaluated whole.  The later slabs are then
#: evaluated whole too: with the bounds, they would pay only below 0.34.
_SCREEN_KEEP_MAX = 0.5


def _check_unit(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _check_log_args(*args: np.ndarray) -> None:
    # The closed forms keep every log argument >= 1; anything smaller means
    # the formula was fed out-of-contract inputs.
    for a in args:
        # fmin passes over NaN, as the comparison with each value does
        if np.fmin.reduce(a, axis=None, initial=np.inf) < 1.0 - 1e-12:
            raise FloatingPointError("log argument fell below 1 in a closed form")


def _hl2(x) -> np.ndarray:
    return 0.5 * np.log2(x)


def _ga_args(ch: ChannelParams, alpha, beta, theta):
    """The five log arguments of ga: a_r1a, a_r1b, a_r2a, a_r2b and a_sum.

    theta enters only through the coherently relayed power, which grows
    with it, and the dirty-paper coded power, which falls.  So a_r1a does
    not depend on theta, a_r2b falls with it and the other three grow, and
    since correctly rounded +, -, *, / and sqrt are monotone, they do so
    in floats too.
    """
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
    return a_r1a, a_r1b, a_r2a, a_r2b, a_sum


def _ga_arrays(ch: ChannelParams, alpha, beta, theta):
    a_r1a, a_r1b, a_r2a, a_r2b, a_sum = _ga_args(ch, alpha, beta, theta)
    # each logarithm once: a_r1b and a_r2b both enter s
    l_r1b, l_r2b = _hl2(a_r1b), _hl2(a_r2b)
    return _hl2(a_r1a) + l_r1b, _hl2(a_r2a) + l_r2b, _hl2(a_sum) + l_r1b + l_r2b


def _ga_block_bounds(ch: ChannelParams, alpha, beta, ends):
    """(r1, r2, s) bounding ga over each block of thetas from one of the
    ends (last axis) to the next.

    By _ga_args, every argument of a block's members lies between its
    values at the block's two ends, so the check of the ends' arguments
    covers every member, and each bound is the members' own float
    expression at the largest arguments: a_r2b of the lower end, the
    others of the upper.  np.log2 is not proven monotone, so a member's
    rate may exceed its block's by a few units in the last place
    (geometry._BLOCK_MARGIN allows for it).  Each logarithm is taken once
    per end and shared by the two blocks that meet there.
    """
    a_r1a, a_r1b, a_r2a, a_r2b, a_sum = _ga_args(ch, alpha, beta, ends)
    l_r1b, l_r2b = _hl2(a_r1b)[..., 1:], _hl2(a_r2b)[..., :-1]
    return (_hl2(a_r1a) + l_r1b, _hl2(a_r2a)[..., 1:] + l_r2b,
            _hl2(a_sum)[..., 1:] + l_r1b + l_r2b)


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


def check_pentagon_budget(family: str, count: int) -> None:
    """ValueError when family's grid would evaluate more than MAX_PENTAGONS pentagons."""
    if count > MAX_PENTAGONS:
        raise ValueError(f"region {family!r} would evaluate {count} pentagons, more than "
                         f"{MAX_PENTAGONS}; use fewer grid points")


def _unit_grid(n: int, name: str, family: str) -> np.ndarray:
    """n points uniform over [0, 1], one pentagon each in a one-parameter
    family, so held to its budget first; shared by every caller, so read-only."""
    if n < 2:
        raise ValueError(f"{name} grid needs at least 2 points, got {n}")
    check_pentagon_budget(family, n)
    return _unit_points(n)


@functools.lru_cache(maxsize=16)
def _unit_points(n: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, n)
    grid.flags.writeable = False
    return grid


def _joined(*parts):
    """The (r1, r2, s) of each part, flattened and joined in order."""
    flat = [[x.ravel() for x in np.broadcast_arrays(*part)] for part in parts]
    return tuple(np.concatenate(bounds) for bounds in zip(*flat))


def _screened_ga(ch: ChannelParams, alphas, betas, thetas, screen):
    """ga's bounds over alphas x betas x thetas (alphas < 1), evaluated only
    where the screen keeps a block, as flat (r1, r2, s) in the grid's order.

    The screen gets the bounds of every block (_ga_block_bounds; the last
    block of a row may be shorter) and returns the mask of those to keep;
    a member is evaluated when a block holding it is kept, with the
    expression and in the order of the unscreened grid, so each is the same
    float as there.  Returns None when more than _SCREEN_KEEP_MAX of the
    blocks are kept, as on a flat chain, since the rows are then faster
    evaluated whole.
    """
    ends = np.append(np.arange(0, thetas.size - 1, _THETA_BLOCK), thetas.size - 1)
    bounds = np.broadcast_arrays(*_ga_block_bounds(
        ch, alphas[:, None, None], betas[None, :, None], thetas[ends]))
    keep = screen(*(v.ravel() for v in bounds)).reshape(bounds[0].shape)
    if np.count_nonzero(keep) > _SCREEN_KEEP_MAX * keep.size:
        return None
    member = np.empty(keep.shape[:2] + thetas.shape, dtype=bool)
    member[..., :-1] = np.repeat(keep, _THETA_BLOCK, axis=2)[..., :thetas.size - 1]
    member[..., -1] = keep[..., -1]
    member[..., ends[1:-1]] |= keep[..., :-1]
    row, at = np.divmod(np.flatnonzero(member), thetas.size)
    return _ga_arrays(ch, np.repeat(alphas, betas.size)[row],
                      np.tile(betas, alphas.size)[row], thetas[at])


def _seed_points(grid: np.ndarray) -> np.ndarray:
    """At most SEED_GRID points of grid, evenly spread, both ends included."""
    return grid[np.linspace(0, grid.size - 1, min(grid.size, SEED_GRID)).round().astype(int)]


def rate_split_pentagons(n_alpha: int, n_beta: int, n_theta: int) -> int:
    """Pentagons the rate-splitting hull evaluates on these grids, empty or
    not, when its block screen keeps every block: for the grid and its seed
    sub-grid, ga over alpha < 1, its alpha=1 row at one theta, and gb."""
    def count(na, nb, nt):
        return nb * ((na - 1) * nt + 1 + na)

    # in Python ints, as numpy integers would wrap past 2**63
    n_alpha, n_beta, n_theta = int(n_alpha), int(n_beta), int(n_theta)
    return count(n_alpha, n_beta, n_theta) + count(
        *(min(n, SEED_GRID) for n in (n_alpha, n_beta, n_theta)))


def _rate_split_slab(ch: ChannelParams, alphas, betas, thetas, gb, ga=None):
    """ga and gb bounds over alphas x betas x thetas as flat (r1, r2, s):
    ga's pentagons with alpha < 1 (or ga, those the block screen kept), its
    alpha=1 row at one theta, as theta is irrelevant without relayed power,
    then gb, the gb bounds of alphas x betas."""
    full = alphas[alphas < 1.0]
    if ga is None:
        ga = _ga_arrays(ch, full[:, None, None], betas[None, :, None], thetas[None, None, :])
    parts = [ga, gb]
    if full.size < alphas.size:
        parts.insert(1, _ga_arrays(ch, alphas[alphas == 1.0][:, None], betas[None, :], 0.0))
    return _joined(*parts)


def _rate_split_rows(ch: ChannelParams, alphas, betas, thetas, screen):
    """The grid's bounds as _rate_split_slab slabs of as many whole alpha
    rows as fit in _SLAB_PENTAGONS (at least one).  Each evaluates only the
    ga theta blocks the block screen keeps (_screened_ga), until a slab's
    screen keeps too many to pay: it and every later slab are evaluated whole."""
    rows = max(1, _SLAB_PENTAGONS // (betas.size * (thetas.size + 1)))
    # gb depends on (alpha, beta) alone: evaluated once, cut into the slabs
    gb = np.broadcast_arrays(*_gb_arrays(ch, alphas[:, None], betas[None, :]))
    screening = True
    for lo in range(0, alphas.size, rows):
        slab = alphas[lo:lo + rows]
        ga = _screened_ga(ch, slab[slab < 1.0], betas, thetas, screen) if screening else None
        screening = ga is not None
        yield _rate_split_slab(ch, slab, betas, thetas, [v[lo:lo + rows] for v in gb], ga)


def _rate_split_region(ch: ChannelParams, family: str, n_alpha: int, n_beta: int,
                       n_theta: int, n_directions: int) -> ConvexRegion:
    """Hull of ga and gb over uniform grids of n_alpha, n_beta and n_theta
    points (g1's one beta is 0), from the sub-grid of _seed_points on each
    axis as its seed: its chain is close to the hull, so it screens out
    most of every row slab, and each of its pentagons is evaluated as the
    grid's own, so it is bit for bit a member and the hull is unchanged."""
    check_pentagon_budget(family, rate_split_pentagons(n_alpha, n_beta, n_theta))
    alphas, thetas = _unit_grid(n_alpha, "alpha", family), _unit_grid(n_theta, "theta", family)
    betas = _unit_grid(n_beta, "beta", family) if family == "g" else np.zeros(1)
    seed = [_seed_points(g) for g in (alphas, betas, thetas)]
    return hull_of_slabs(
        _rate_split_slab(ch, *seed, _gb_arrays(ch, seed[0][:, None], seed[1][None, :])),
        n_directions,
        provenance=f"{family}(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
        rows=functools.partial(_rate_split_rows, ch, alphas, betas, thetas),
    )


def g_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_G_GRID,
    n_beta: int = DEFAULT_G_GRID,
    n_theta: int = DEFAULT_G_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the full rate-splitting family: both coding orders, all splits."""
    return _rate_split_region(ch, "g", n_alpha, n_beta, n_theta, n_directions)


def g1_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_theta: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the rate-splitting family without a common layer (beta = 0)."""
    return _rate_split_region(ch, "g1", n_alpha, 1, n_theta, n_directions)


def g2_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the superposition-only family."""
    alphas = _unit_grid(n_alpha, "alpha", "g2")
    return hull_of_slabs(
        _g2_arrays(ch, alphas), n_directions,
        provenance=f"g2(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def g3p_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the precoded-common-message family at the optimal coefficient."""
    alphas = _unit_grid(n_alpha, "alpha", "g3p")
    return hull_of_slabs(
        _g3p_arrays(ch, alphas), n_directions,
        provenance=f"g3p(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )


def capacity_region(
    ch: ChannelParams,
    n_alpha: int = DEFAULT_GRID,
    n_directions: int = DEFAULT_DIRECTIONS,
) -> ConvexRegion:
    """Hull of the two-constraint capacity pentagons over alpha."""
    alphas = _unit_grid(n_alpha, "alpha", "capacity")
    return hull_of_slabs(
        _capacity_arrays(ch, alphas), n_directions,
        provenance=f"capacity(P1={ch.p1:g},P2={ch.p2:g},b={ch.b:g})",
    )
