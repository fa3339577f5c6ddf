"""Convex-region machinery for the 2-D rate plane.

A region is represented by support-function samples over the first-quadrant
arc: the convex hull of a union of pentagons has support equal to the
pointwise max of the member supports.  A pentagon's support in such a
direction is attained at one of its two top corners, so the maximum is
read off the convex chain of the top corners, one binary search per
direction, within a few units in the last place of the max over every
pentagon and exact on the axes.  Every hull is built by hull_of_slabs from
a seed slab, which reaches the kernel whole, and optional rows: the seed's
corner chain screens each slab of the rows (Akl and Toussaint, IPL 1978),
so only the seed and what passes are held while the next is evaluated.
The rows are given a block screen on that chain: they bound blocks of
pentagons first and evaluate only the blocks whose bounding pentagon may
reach the chain (_blocks_reaching), a sound bound per block in the sense
of interval analysis (Moore, 1966).
Every boundary polyline, of a hull or of an intersection of regions, is the
intersection of the sampled halfplanes with the nonnegative quadrant, to
within roundoff.  A hull's sampled halfplanes all touch the hull, so its
boundary is the intersections of consecutive lines; an intersection of two
regions has loose halfplanes, and its boundary is merged from theirs.
A region is sampled only at quadrant_directions(n), 3 <= n <= MAX_DIRECTIONS:
what the kernel and the envelope read of the directions alone is one
read-only table per n, built once, and any other array is refused.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, NamedTuple

import numpy as np

from .model import Pentagon, RatePair, require_nonnegative

#: Default number of support directions over the quadrant (eighth-degree steps).
DEFAULT_DIRECTIONS = 721

#: Most support directions n.  An envelope has at most n + 2 vertices, and the
#: vertices x directions products that read a support back off a boundary
#: (intersect, the CLI's check of each emitted boundary) peak near 16*n**2 bytes.
MAX_DIRECTIONS = 4097

#: Vertex deduplication / constraint-check tolerance for boundary extraction.
_BOUNDARY_TOL = 1e-9

#: Relative margin of the block screen (_blocks_reaching), 2**-44 or 256
#: units in the last place: a block's members may exceed its bounds by a
#: quarter of it (np.log2 is not proven monotone), and the rest covers the
#: rounding of the corners, of y - x and of np.interp, about 20 units.
_BLOCK_MARGIN = 2.0**-44


class _DirectionTable(NamedTuple):
    """What the kernel and the envelope read of a direction set alone.

    dx, dy and angles = arctan2(dy, dx) are what support_max_over_pentagons
    searches, r2_axis the indices with dx = 0; a0, b0, a, b and det are the
    coefficients of consecutive lines (y >= 0, the samples, x >= 0) and
    their determinants, from which _tight_envelope takes each vertex as
    ((h0*b - h*b0)/det, (a0*h - a*h0)/det).
    """

    dirs: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    angles: np.ndarray
    r2_axis: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    det: np.ndarray


@functools.cache
def _quadrant_table(n: int) -> _DirectionTable:
    """The direction table of quadrant_directions(n), built once per n and kept,
    as regions are matched to it by the identity of their directions array
    (at most MAX_DIRECTIONS tables, of about 80*n bytes each)."""
    if not 3 <= n <= MAX_DIRECTIONS:
        raise ValueError(f"need at least 3 and at most {MAX_DIRECTIONS} directions, got {n}")
    angles = np.linspace(0.0, np.pi / 2.0, n)
    # the angle step, at least 90/4096 degrees, dwarfs the rounding of cos and
    # sin, so the arctan2 angles strictly increase (checked for every such n)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    dirs[0] = (1.0, 0.0)
    dirs[-1] = (0.0, 1.0)
    dx, dy = dirs[:, 0].copy(), dirs[:, 1].copy()
    # the lines y >= 0, the samples, x >= 0, each with the next one
    a0, b0 = np.append(0.0, dx), np.append(-1.0, dy)
    a, b = np.append(dx, -1.0), np.append(dy, 0.0)
    # the angle step is in (0, 180) degrees, so det > 0
    table = _DirectionTable(dirs, dx, dy, np.arctan2(dy, dx), np.flatnonzero(dx == 0.0),
                            a0, b0, a, b, a0 * b - b0 * a)
    for arr in table:
        arr.flags.writeable = False
    return table


def quadrant_directions(n: int) -> np.ndarray:
    """n unit vectors with angles uniform over [0, 90] degrees, as an (n, 2) array.

    The first row is exactly (1, 0) and the last exactly (0, 1).  The array
    is built once per n, with the table of everything that depends on it
    alone, and shared by every caller, so it is read-only.
    """
    return _quadrant_table(n).dirs


def _table(dirs: np.ndarray) -> _DirectionTable:
    """The table of dirs, which must be quadrant_directions(n)'s own array."""
    table = _quadrant_table(len(dirs))
    if table.dirs is not dirs:
        raise ValueError("directions must be the array quadrant_directions(n) returns")
    return table


def pentagon_support(p: Pentagon, d: tuple[float, float] | np.ndarray) -> float:
    """Support value max_{x in p} d.x for a first-quadrant unit direction.

    Closed form by checking the at most five vertices.  Raises ValueError for
    an empty pentagon or a direction outside the closed first quadrant.
    """
    if p.is_empty():
        raise ValueError("empty region has no support")
    dx, dy = float(d[0]), float(d[1])
    if dx < 0.0 or dy < 0.0:
        raise ValueError(f"direction must lie in the first quadrant, got {(dx, dy)}")
    norm = np.hypot(dx, dy)
    if not np.isclose(norm, 1.0, rtol=0.0, atol=1e-9):
        raise ValueError(f"direction must be unit length, got norm {norm!r}")
    return max(dx * vx + dy * vy for vx, vy in p.vertices())


def _top_corners(r1: np.ndarray, r2: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the two top corners of every pentagon.

    Corner i is the r1-side corner of pentagon i and corner n + i its
    r2-side corner; they coincide when the sum bound is slack.
    """
    x_first = np.minimum(r1, s)
    y_second = np.minimum(r2, s)
    x = np.concatenate([x_first, np.minimum(r1, s - y_second)])
    y = np.concatenate([np.minimum(r2, s - x_first), y_second])
    return x, y


def _corner_chain(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper-right convex chain of the points, from the largest x to the largest y.

    Andrew's monotone chain (1979) over the staircase of the points: by
    decreasing x, the points higher than every point before them.  The
    vertices run by strictly decreasing x and strictly increasing y, and
    collinear points are dropped.  The loop pops nothing while every
    staircase point turns left past its two neighbours, so one vectorised
    turn test (the loop's own, in the same floats) returns a convex
    staircase as it stands, and any other runs the loop from its first
    point that does not turn left.
    """
    # by decreasing x, ties by decreasing y: two sorts, the second stable,
    # are faster than np.lexsort
    o = np.argsort(-y)
    order = o[np.argsort(-x[o], kind="stable")]
    xs, ys = x[order], y[order]
    stair = np.append(True, ys[1:] > np.maximum.accumulate(ys)[:-1])
    xs, ys = xs[stair], ys[stair]
    left = ((xs[1:-1] - xs[:-2]) * (ys[2:] - ys[:-2])
            - (ys[1:-1] - ys[:-2]) * (xs[2:] - xs[:-2])) > 0.0
    if left.all():
        return xs, ys
    # the loop pushes every point before the first that fails, popping none
    i = int(np.argmin(left)) + 2
    cx, cy = xs[:i].tolist(), ys[:i].tolist()
    for px, py in zip(xs[i:].tolist(), ys[i:].tolist()):
        while len(cx) >= 2:
            ox, oy = cx[-2], cy[-2]
            if (cx[-1] - ox) * (py - oy) - (cy[-1] - oy) * (px - ox) > 0.0:
                break
            cx.pop()
            cy.pop()
        cx.append(px)
        cy.append(py)
    return np.array(cx), np.array(cy)


def _depth(cx: np.ndarray, cy: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """How far each point lies below the chain along (1, 1); -inf outside
    the chain's (y - x) range."""
    return np.interp(y - x, cy - cx, cx, left=-np.inf, right=-np.inf) - x


def _near_chain(cx: np.ndarray, cy: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the points at most _BOUNDARY_TOL below the chain along (1, 1).

    A point that an end vertex is at or above in both coordinates fails, as
    does every point on the chain's feet; one beyond either end passes.
    """
    ends = ((x <= cx[0]) & (y <= cy[0])) | ((x <= cx[-1]) & (y <= cy[-1]))
    return (_depth(cx, cy, x, y) <= _BOUNDARY_TOL) & ~ends


def _blocks_reaching(cx: np.ndarray, cy: np.ndarray, r1: np.ndarray, r2: np.ndarray,
                     s: np.ndarray) -> np.ndarray:
    """Mask of the blocks of pentagons that may hold a top corner _near_chain passes.

    Block i has the bounding pentagon (r1[i], r2[i], s[i]): no member's r1,
    r2 or s exceeds the block's times 1 + _BLOCK_MARGIN / 4.  A block goes
    when both top corners of its bounding pentagon lie more than
    _BOUNDARY_TOL plus _BLOCK_MARGIN times the chain's largest coordinate
    below the chain along (1, 1), inside the chain's (y - x) range.  The
    points that far below the chain form a convex, down-closed set, so
    with the two corners it holds the whole bounding pentagon and, up to
    the margin, every member's pentagon and top corner.  _near_chain fails
    each such corner: one inside the range lies too deep, and one outside
    it lies under an end vertex.  A block with a bound that is not finite
    is kept, so its members are evaluated and counted.
    """
    keep = ~(np.isfinite(r1) & np.isfinite(r2) & np.isfinite(s))
    if keep.any():
        keep[~keep] = _blocks_reaching(cx, cy, r1[~keep], r2[~keep], s[~keep])
        return keep
    deep = _depth(cx, cy, *_top_corners(r1, r2, s)) > (
        _BOUNDARY_TOL + _BLOCK_MARGIN * max(cx[0], cy[-1]))
    return ~(deep[:r1.size] & deep[r1.size:])


#: Offsets of the vertices the kernel compares with its searched one.
_NEIGHBOURS = np.arange(-1, 2)[:, None]


def support_max_over_pentagons(
    r1: np.ndarray, r2: np.ndarray, s: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Per-direction max support over a batch of non-empty pentagons.

    A pentagon's support in a first-quadrant direction is attained at one
    of its two top corners, so the maximum over the batch is attained at a
    vertex of the convex chain of all top corners (monotone chain, Andrew
    1979).  Vertex k is the maximum for the angles between the normals of
    chain edges k-1 and k, so one searchsorted of the directions' angles
    among the edge normals finds it; the rounded angles can place it one
    vertex off, so the largest dx*x + dy*y over it and its two neighbours is
    taken.  Where the normals are not monotone, the running maximum that
    makes them searchable raises a run of them, and the directions that run
    covers take the best of every vertex it can hide (_widen_raised).  That
    is within a few units in the last place of the largest bound of the max
    over every pentagon, by the vertex form or by the
    LP-dual closed form min(dx*a + dy*b - m*max(a + b - c, 0), M*c), m and
    M the smaller and larger direction component; it is read off the chain
    alone, so the same kept corners give the same float in any order.  On
    the axes it is exactly the chain's largest x or largest y.  The cost is
    O(P log P + D) for P pentagons and D directions.
    """
    r1 = np.asarray(r1, dtype=float).ravel()
    r2 = np.asarray(r2, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    t = _table(dirs)
    if r1.size == 0:
        raise ValueError("no pentagons supplied")
    cx, cy = _corner_chain(*_top_corners(r1, r2, s))
    raw = np.arctan2(cx[:-1] - cx[1:], cy[1:] - cy[:-1])
    normals = np.maximum.accumulate(raw)
    k = np.searchsorted(normals, t.angles)
    # the flattest normals can all round to 90 degrees; the r2 axis takes
    # the last vertex, as the r1 axis takes the first
    k[t.r2_axis] = cx.size - 1
    near = np.clip(k + _NEIGHBOURS, 0, cx.size - 1)
    h = np.max(t.dx * cx[near] + t.dy * cy[near], axis=0)
    raised = normals > raw
    if raised.any():
        _widen_raised(h, cx, cy, raw, normals, raised, t)
    return h


def _widen_raised(h: np.ndarray, cx: np.ndarray, cy: np.ndarray, raw: np.ndarray,
                  normals: np.ndarray, raised: np.ndarray, t: _DirectionTable) -> None:
    """Raise h, in place, to the max over every vertex a raised run of normals hides.

    Two chain vertices a few ulps apart pass the float turn test with an
    edge normal far off its neighbours', so the normals are not monotone
    and the accumulate raises a run of them to the peak M before it.  A
    direction between the run's lowest normal L and M may then peak at any
    vertex from the last one whose edges all have normals below L up to
    the vertex after the run, and the searched vertex can be more than one
    step from it.  Those directions take the max over that whole window,
    with one vertex more on each side for the rounded angles; any other
    keeps its value.  Each vertex's value is the same float expression as
    in the search, so where the search found the maximizer h is unchanged.
    """
    edges = np.flatnonzero(raised)
    breaks = np.flatnonzero(np.diff(edges) > 1)
    for p, q in zip(edges[np.append(0, breaks + 1)], edges[np.append(breaks, -1)]):
        low, peak = raw[p:q + 1].min(), normals[p]
        d = slice(np.searchsorted(t.angles, low), np.searchsorted(t.angles, peak, "right"))
        v = slice(max(int(np.searchsorted(normals, low)) - 1, 0), q + 3)
        h[d] = np.maximum(h[d], np.max(t.dx[d, None] * cx[v] + t.dy[d, None] * cy[v], axis=1))


def _dedupe(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The vertices (x, y), each dropped within _BOUNDARY_TOL of the one before
    it per coordinate, as an (m, 2) polyline.

    A run of such vertices keeps its first, which for the first run is the
    vertex on the r1 axis; the last run keeps its last, the vertex on the r2
    axis, so the polyline ends exactly there and not at a roundoff twin.
    """
    far = (np.abs(np.diff(x)) > _BOUNDARY_TOL) | (np.abs(np.diff(y)) > _BOUNDARY_TOL)
    keep = np.flatnonzero(np.append(True, far))
    keep[-1] = x.size - 1
    return np.column_stack([x[keep], y[keep]])


def _tight_envelope(dirs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Vertices of {x >= 0, y >= 0, d_i.x <= h_i} when every halfplane is tight.

    A hull's support touches the hull in every sampled direction, so no line
    is cut off and the envelope's vertices are the intersections of
    consecutive lines.  The two vertices on a sampled line bound its edge;
    if the later one lies behind the earlier by more than _BOUNDARY_TOL
    along the line, the line is loose and ValueError is raised.  Returns
    an (m, 2) polyline deduplicated at _BOUNDARY_TOL.
    """
    t = _table(dirs)
    hs = np.concatenate(([0.0], support, [0.0]))
    h0, h = hs[:-1], hs[1:]
    x = (h0 * t.b - h * t.b0) / t.det
    y = (t.a0 * h - t.a * h0) / t.det
    ahead = t.a[:-1] * np.diff(y) - t.b[:-1] * np.diff(x)
    loose = np.flatnonzero(ahead < -_BOUNDARY_TOL)
    if loose.size:
        raise ValueError(
            f"support is loose at {loose.size} sampled directions (first at index "
            f"{loose[0]}); a hull's support touches every sampled halfplane"
        )
    return _dedupe(np.maximum(x, 0.0), np.maximum(y, 0.0))


def _merged_envelope(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boundary of the intersection of two regions, merged from their own
    boundaries (O'Rourke, Chien, Olson and Naddor, CGIP 1982).

    Along a boundary x falls and y rises, so u = y - x grows by at least
    each edge's length, and the region meets each line y - x = u of its u
    range from the axes up to x(u).  The intersection is bounded by the
    lower x(u): each parent's vertices at or below the other's, a crossing
    wherever x_a - x_b, linear between merged vertices, changes sign, and
    the lower axis ends.  A gap x_a - x_b within 2**-40 of the largest axis
    end, about 8 times the roundoff of a hull's vertices, counts as 0:
    a crossing read off roundoff can slide far along its edges.  Returns
    an (m, 2) polyline clamped at 0 and deduplicated at _BOUNDARY_TOL.
    """
    ua, ub = a[:, 1] - a[:, 0], b[:, 1] - b[:, 0]
    u = np.concatenate([ua, ub])
    order = np.argsort(u, kind="stable")
    u = u[order]
    # each parent's x(u) at every merged vertex, NaN outside its u range
    xa = np.interp(u, ua, a[:, 0], np.nan, np.nan)
    gap = xa - np.interp(u, ub, b[:, 0], np.nan, np.nan)
    gap[np.abs(gap) <= 2.0**-40 * max(a[0, 0], a[-1, 1], b[0, 0], b[-1, 1])] = 0.0
    c = np.flatnonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0.0)
    t = gap[c] / (gap[c] - gap[c + 1])
    # slots [k, 0] hold merged vertex k and [k, 1] the crossing after it
    v, keep = np.empty((u.size, 2, 2)), np.zeros((u.size, 2), dtype=bool)
    v[:, 0] = np.concatenate([a, b])[order]
    keep[:, 0] = np.where(order < len(a), -gap, gap) >= 0.0
    v[c, 1, 0] = xa[c] + t * (xa[c + 1] - xa[c])
    v[c, 1, 1] = v[c, 1, 0] + (u[c] + t * (u[c + 1] - u[c]))
    keep[c, 1] = True
    x, y = np.concatenate([[[-max(ua[0], ub[0]), 0.0]], v[keep],
                           [[0.0, min(ua[-1], ub[-1])]]]).T
    return _dedupe(np.maximum(x, 0.0), np.maximum(y, 0.0))


@dataclass(frozen=True)
class ConvexRegion:
    """A convex rate region sampled by its support function.

    directions is quadrant_directions(n), the (n, 2) array of unit vectors
    by increasing angle from (1, 0) to (0, 1); support holds the matching
    n support values in bits; boundary is the extracted polyline.  provenance
    is a free-text tag of the generating family and grids (used in legends).
    """

    directions: np.ndarray
    support: np.ndarray
    boundary: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        _table(self.directions)
        h = np.asarray(self.support, dtype=float)
        if h.shape != self.directions.shape[:1]:
            raise ValueError("directions and support shapes do not match")
        if not np.all(np.isfinite(h)) or np.any(h < 0.0):
            raise ValueError("support values must be finite and >= 0")
        object.__setattr__(self, "support", h)
        object.__setattr__(self, "boundary", np.asarray(self.boundary, dtype=float))

    @classmethod
    def from_support(
        cls, directions: np.ndarray, support: np.ndarray, provenance: str = ""
    ) -> "ConvexRegion":
        """Region of a hull's support: every sampled halfplane touches the hull.

        Raises ValueError when a sampled halfplane is loose, as the pointwise
        min of two supports can be; intersect handles those.
        """
        boundary = _tight_envelope(directions, np.asarray(support, dtype=float))
        return cls(directions=directions, support=support, boundary=boundary,
                   provenance=provenance)

    def contains(self, pt: RatePair | tuple[float, float], tol: float = 0.0) -> bool:
        """True iff d.pt <= support(d) + tol for every sampled direction."""
        tol = require_nonnegative("tol", tol)
        x = (pt.r1, pt.r2) if isinstance(pt, RatePair) else (float(pt[0]), float(pt[1]))
        return bool(np.all(self.directions @ np.asarray(x) <= self.support + tol))


def hull_of_union(
    pentagons: Iterable[Pentagon],
    n_directions: int = DEFAULT_DIRECTIONS,
    provenance: str = "",
) -> ConvexRegion:
    """hull_of_slabs over the bounds of Pentagon objects, as the seed."""
    bounds = np.array(
        [(p.r1_max, p.r2_max, p.sum_max) for p in pentagons], dtype=float
    ).reshape(-1, 3)
    return hull_of_slabs(bounds.T, n_directions, provenance)


def _finite_bounds(slab, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab k's (r1, r2, s) as flat float arrays (slab 0 is the seed);
    ValueError with the slab's count when any is NaN or infinite."""
    r1, r2, s = (np.asarray(v, dtype=float).ravel() for v in slab)
    bad = sum(int(np.count_nonzero(~np.isfinite(v))) for v in (r1, r2, s))
    if bad:
        where = "the seed" if k == 0 else f"slab {k} after the seed"
        raise ValueError(f"pentagon bounds must be finite; {bad} are NaN or infinite in "
                         f"{where}, the first slab that holds one (the count is that slab's)")
    return r1, r2, s


def hull_of_slabs(
    seed: tuple[np.ndarray, np.ndarray, np.ndarray],
    n_directions: int = DEFAULT_DIRECTIONS,
    provenance: str = "",
    rows: Callable[[Callable], Generator] | None = None,
) -> ConvexRegion:
    """Convex hull of a union of pentagons, sampled at n_directions directions.

    The union arrives as the seed, one (r1, r2, s) triple of flat bound
    arrays, and the slabs of the generator rows(screen), if rows is given,
    consumed one at a time.  Bounds must be finite, as in Pentagon: the
    first slab that holds a NaN or infinite one raises ValueError with its
    count and closes the generator.  Each slab drops its empty pentagons
    (any negative bound); ValueError is raised when the seed holds no other.
    The seed reaches the kernel whole.  With rows, its corner chain is built
    once and screens each later slab by _near_chain: a pentagon goes when
    neither top corner passes, so a corner the kernel sees is at least as
    high in every unit first-quadrant direction.  The box corner (min(r1, s),
    min(r2, s)) lies at or above both top corners, so it screens the slab
    first, with the empty mask.  The kept pentagons depend on how the union
    is cut into slabs, but none that can attain the maximum is dropped, so
    the support is the same float for every cut and order.  rows is called
    once, with the block screen: _blocks_reaching on that chain, which maps
    the flat (r1, r2, s) bounds of blocks of pentagons not yet evaluated to
    the mask of those that may hold a pentagon the screen keeps.  The
    support at each direction is the max of the member supports, to within
    a few units in the last place of the largest bound (see
    support_max_over_pentagons).
    """
    dirs = quadrant_directions(n_directions)
    r1, r2, s = _finite_bounds(seed, 0)
    # an empty pentagon has no support, but the kernel's closed form
    # would give it one, so it must not reach the kernel
    live = (r1 >= 0.0) & (r2 >= 0.0) & (s >= 0.0)
    if not live.any():
        raise ValueError("all pentagons are empty; nothing to hull" if rows is None else
                         "all pentagons of the seed are empty; no chain screens the rows")
    # a slab with every pentagon live goes on as it is, uncopied
    kept = [[r1, r2, s] if live.all() else [v[live] for v in (r1, r2, s)]]
    if rows is not None:
        chain = _corner_chain(*_top_corners(*kept[0]))
        with contextlib.closing(rows(functools.partial(_blocks_reaching, *chain))) as later:
            for k, slab in enumerate(later, 1):
                r1, r2, s = _finite_bounds(slab, k)
                live = (r1 >= 0.0) & (r2 >= 0.0) & (s >= 0.0)
                if live.any():
                    live &= _near_chain(*chain, np.minimum(r1, s), np.minimum(r2, s))
                slab = [r1, r2, s] if live.all() else [v[live] for v in (r1, r2, s)]
                if slab[0].size:
                    near, n = _near_chain(*chain, *_top_corners(*slab)), slab[0].size
                    kept.append([v[near[:n] | near[n:]] for v in slab])
    r1, r2, s = kept[0] if len(kept) == 1 else (np.concatenate(v) for v in zip(*kept))
    support = support_max_over_pentagons(r1, r2, s, dirs)
    return ConvexRegion.from_support(dirs, support, provenance)


def _check_same_directions(a: ConvexRegion, b: ConvexRegion) -> None:
    if a.directions is not b.directions:
        raise ValueError("regions are sampled on different direction sets")


def intersect(a: ConvexRegion, b: ConvexRegion, provenance: str = "") -> ConvexRegion:
    """Intersection of the sampled halfplanes of two regions, to within roundoff.

    Each boundary must be the envelope of its own support, as that of every
    from_support and intersect result is.  The boundary is merged from the
    two (_merged_envelope) and the support read back off its vertices: the
    pointwise min of two supports is loose where neither halfplane is tight.
    """
    _check_same_directions(a, b)
    boundary = _merged_envelope(a.boundary, b.boundary)
    support = np.max(boundary @ a.directions.T, axis=0)
    return ConvexRegion(a.directions, support, boundary, provenance)


def directed_gap(outer: ConvexRegion, inner: ConvexRegion) -> float:
    """Max over sampled directions of outer.support - inner.support, in bits.

    Positive when the outer region sticks out beyond the inner one somewhere;
    negative when inner exceeds outer at every sampled direction.
    """
    _check_same_directions(outer, inner)
    return float(np.max(outer.support - inner.support))


@dataclass(frozen=True)
class SubsetReport:
    """Outcome of a tolerance-based subset check between two sampled regions."""

    is_subset: bool
    worst_direction: tuple[float, float]
    worst_violation: float

    @property
    def worst_direction_deg(self) -> float:
        dx, dy = self.worst_direction
        return float(np.degrees(np.arctan2(dy, dx)))


def subset_within(inner: ConvexRegion, outer: ConvexRegion, tol: float) -> SubsetReport:
    """Check inner.support(d) <= outer.support(d) + tol for every direction.

    The report carries the direction of the largest violation (which is
    negative slack when the check passes everywhere with room to spare).
    tol must be finite and >= 0.
    """
    tol = require_nonnegative("tol", tol)
    _check_same_directions(inner, outer)
    diff = inner.support - outer.support
    i = int(np.argmax(diff))
    return SubsetReport(
        is_subset=bool(diff[i] <= tol),
        worst_direction=(float(inner.directions[i, 0]), float(inner.directions[i, 1])),
        worst_violation=float(diff[i]),
    )
