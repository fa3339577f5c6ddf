"""Convex-region machinery for the 2-D rate plane.

A region is represented by support-function samples over the first-quadrant
arc: the convex hull of a union of pentagons has support equal to the
pointwise max of the member supports.  Only pentagons with a top corner that
no other corner beats are kept; the rest never attain the maximum.  The
maximum itself is located on the convex chain of the kept top corners, so
each direction evaluates only the few pentagons whose corners lie on or
within roundoff of its support line, and the result is the same float as
the max over every pentagon.  Every hull is built by hull_of_slabs, which
takes a union as slabs: each slab joins the survivors so far in one running
prune, so only those survivors are held while the next slab is evaluated.
Every boundary polyline, of a hull or of an intersection of regions, is the
exact intersection of the sampled halfplanes with the nonnegative quadrant.
A hull's sampled halfplanes all touch the hull, so its boundary is the
intersections of consecutive lines; an intersection of regions has loose
halfplanes and is traced by a sorted-angle halfplane intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Pentagon, RatePair

#: Default number of support directions over the quadrant (eighth-degree steps).
DEFAULT_DIRECTIONS = 721

#: Vertex deduplication / constraint-check tolerance for boundary extraction.
_BOUNDARY_TOL = 1e-9

#: Band below a direction's support line, relative to the largest pentagon
#: bound, in which a top corner counts as tied with the maximum.  The closed
#: form errs by a few units in the last place of the bounds (about 1e-15
#: relative), so every pentagon whose value can round to the maximum has a
#: corner in the band.
_TIE_TOL = 2.0**-42

#: Most pentagon-direction cells the support maximum evaluates at once.
_BLOCK_CELLS = 2**15


def quadrant_directions(n: int) -> np.ndarray:
    """n unit vectors with angles uniform over [0, 90] degrees, as an (n, 2) array.

    The first row is exactly (1, 0) and the last exactly (0, 1).
    """
    if n < 3:
        raise ValueError(f"need at least 3 directions, got {n}")
    angles = np.linspace(0.0, np.pi / 2.0, n)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    dirs[0] = (1.0, 0.0)
    dirs[-1] = (0.0, 1.0)
    return dirs


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


def _owns_undominated_corner(r1: np.ndarray, r2: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mask of the pentagons with a top corner that no other corner beats.

    Beating means exceeding by more than _BOUNDARY_TOL in both coordinates,
    which lowers the support in every unit first-quadrant direction by at
    least that much, far above roundoff; so a pentagon whose two top corners
    are both beaten is never the maximum.  Maxima of a set of vectors (Kung,
    Luccio and Preparata, JACM 1975): sort by x, running max of y, bisect.
    """
    n = r1.size
    x, y = _top_corners(r1, r2, s)
    order = np.argsort(x)
    x, y = x[order], y[order]
    # best_y[i] is the largest y among the corners sorted at or after i
    best_y = np.append(np.maximum.accumulate(y[::-1])[::-1], -np.inf)
    first_ahead = np.searchsorted(x, x + _BOUNDARY_TOL, side="right")
    beaten = np.empty(2 * n, dtype=bool)
    beaten[order] = best_y[first_ahead] > y + _BOUNDARY_TOL
    return ~(beaten[:n] & beaten[n:])


def _corner_chain(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper-right convex chain of the points, from the largest x to the largest y.

    Andrew's monotone chain (1979) over the staircase of the points: by
    decreasing x, the points higher than every point before them.  The
    vertices run by strictly decreasing x and strictly increasing y, and
    collinear points are dropped.
    """
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    stair = np.append(True, ys[1:] > np.maximum.accumulate(ys)[:-1])
    chain = []
    for p in zip(xs[stair].tolist(), ys[stair].tolist()):
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0.0:
                break
            chain.pop()
        chain.append(p)
    cx, cy = np.array(chain).T
    return cx, cy


def support_max_over_pentagons(
    r1: np.ndarray, r2: np.ndarray, s: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Per-direction max support over a batch of non-empty pentagons.

    A pentagon's support is the larger of its two top corners' and has the
    LP-dual closed form min(dx*a + dy*b, m*c + (dx-m)*a + (dy-m)*b, M*c) for
    a pentagon (a, b, c) and direction (dx, dy), with m = min(dx, dy) and
    M = max(dx, dy).  The first two terms collapse to dx*a + dy*b -
    m*max(a + b - c, 0), and the third can only bind when the sum
    constraint is active.

    The maximum is found on the convex chain of all top corners (monotone
    chain, Andrew 1979), closed by a foot below its first vertex and one
    left of its last.  One searchsorted of the directions' angles among the
    chain's edge normals gives each direction its vertex, which widens to
    the run of vertices within the tie band (_TIE_TOL) of the best.  Moving
    a corner along (1, 1) onto the chain raises it in every direction and
    keeps u = x - y, so a corner can round to the maximum only if it lies
    within the band of the chain and its u falls where the chain is within
    the band of the best.  Only the pentagons owning such corners, collinear
    and coincident ones included, are evaluated, so the result is the same
    float as the max over every pentagon, at a cost of O(P log P + D) for P
    pentagons and D directions.  On the axes the max is read off the chain
    exactly, as min(r1, s) or min(r2, s) is all the closed form leaves there.
    """
    r1 = np.asarray(r1, dtype=float).ravel()
    r2 = np.asarray(r2, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    if r1.size == 0:
        raise ValueError("no pentagons supplied")
    x, y = _top_corners(r1, r2, s)
    bound = max(np.abs(r1).max(), np.abs(r2).max(), np.abs(s).max())
    tol = _TIE_TOL * bound
    cx, cy = _corner_chain(x, y)
    cx = np.concatenate([cx[:1], cx, [x.min() - 1.0 - bound]])
    cy = np.concatenate([[y.min() - 1.0 - bound], cy, cy[-1:]])
    u = cx - cy
    last = cx.size - 1
    dx, dy = dirs[:, 0], dirs[:, 1]

    # vertex k is the maximum for angles between the normals of edges k-1
    # and k; widen it to the run of vertices within tol of the best
    normals = np.maximum.accumulate(np.arctan2(cx[:-1] - cx[1:], cy[1:] - cy[:-1]))
    lo = hi = np.searchsorted(normals, np.arctan2(dy, dx))
    best = dx * cx[lo] + dy * cy[lo]
    while True:
        before, after = np.maximum(lo - 1, 0), np.minimum(hi + 1, last)
        h_before = dx * cx[before] + dy * cy[before]
        h_after = dx * cx[after] + dy * cy[after]
        best = np.maximum(best, np.maximum(h_before, h_after))
        down = (lo > 0) & (h_before >= best - tol)
        up = (hi < last) & (h_after >= best - tol)
        if not (down.any() or up.any()):
            break
        lo, hi = lo - down, hi + up

    def reach(end, beyond):
        """u where the chain from vertex end toward vertex beyond leaves the band."""
        h_end = dx * cx[end] + dy * cy[end]
        room, drop = h_end - (best - tol), h_end - (dx * cx[beyond] + dy * cy[beyond])
        frac = np.divide(room, drop, out=np.zeros_like(drop), where=(room > 0.0) & (drop > 0.0))
        return u[end] + np.minimum(frac, 1.0) * (u[beyond] - u[end])

    u_top = reach(lo, np.maximum(lo - 1, 0)) + tol
    u_bottom = reach(hi, np.minimum(hi + 1, last)) - tol
    # a corner is near when it lies within the band of the chain, and not
    # so deep on a foot that no sampled direction off the axes reaches it
    corner_u = x - y
    on_axis = (dx == 0.0) | (dy == 0.0)
    lean = np.minimum(dx, dy)[~on_axis].min(initial=1.0)
    depth = np.maximum(corner_u - u[1], u[-2] - corner_u)
    near = np.flatnonzero((np.interp(-corner_u, -u, cx) - x <= 2.0 * tol)
                          & (lean * depth <= 2.0 * tol))
    near_u, owner = corner_u[near], near % r1.size
    order = np.lexsort((s[owner], r2[owner], r1[owner], near_u))
    key = np.column_stack([near_u, r1[owner], r2[owner], s[owner]])[order]
    # repeated pentagons give the same value, so one copy of each is kept
    fresh = order[np.append(True, np.any(key[1:] != key[:-1], axis=1))]
    near_u, owner = near_u[fresh], owner[fresh]
    start = np.searchsorted(near_u, u_bottom, side="left")
    counts = np.searchsorted(near_u, u_top, side="right") - start
    counts[on_axis] = 0
    # cells run direction by direction: direction k has cells ends[k] -
    # counts[k] to ends[k], for the pentagons owner[start[k]] onward
    ends, total = np.cumsum(counts), int(counts.sum())
    shift = start - (ends - counts)

    # the same products, in the same order, as a pentagons x directions
    # broadcast, so each value is bitwise the same
    excess = np.maximum(r1 + r2 - s, 0.0)
    dmin_neg, dmax = -np.minimum(dx, dy), np.maximum(dx, dy)
    support = np.where(dy == 0.0, cx[0] * dx, np.where(dx == 0.0, cy[-1] * dy, -np.inf))
    # coincident corners of many pentagons all need their own value, so the
    # cells are evaluated in blocks of bounded size
    for first in range(0, total, _BLOCK_CELLS):
        stop = min(first + _BLOCK_CELLS, total)
        k = np.arange(np.searchsorted(ends, first, side="right"),
                      np.searchsorted(ends, stop - 1, side="right") + 1)
        taken = np.minimum(ends[k], stop) - np.maximum(ends[k] - counts[k], first)
        k, taken = k[taken > 0], taken[taken > 0]
        j = np.repeat(k, taken)
        p = owner[np.arange(first, stop) + shift[j]]
        h = r1[p] * dx[j]
        h += r2[p] * dy[j]
        h += excess[p] * dmin_neg[j]
        np.minimum(h, s[p] * dmax[j], out=h)
        support[k] = np.maximum(support[k], np.maximum.reduceat(h, np.cumsum(taken) - taken))
    return support


def _dedupe(pts: np.ndarray) -> np.ndarray:
    """Drop each vertex within _BOUNDARY_TOL of the one before it, per coordinate.

    A run of such vertices keeps its first, which for the first run is the
    vertex on the r1 axis; the last run keeps its last, the vertex on the r2
    axis, so the polyline ends exactly there and not at a roundoff twin.
    """
    far = np.any(np.abs(np.diff(pts, axis=0)) > _BOUNDARY_TOL, axis=1)
    keep = np.flatnonzero(np.append(True, far))
    keep[-1] = len(pts) - 1
    return pts[keep]


def _quadrant_lines(dirs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """(n + 2, 3) rows (a, b, h) of a.x + b.y <= h: y >= 0, the samples, x >= 0."""
    return np.vstack([(0.0, -1.0, 0.0), np.column_stack([dirs, support]),
                      (-1.0, 0.0, 0.0)])


def _tight_envelope(dirs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Vertices of {x >= 0, y >= 0, d_i.x <= h_i} when every halfplane is tight.

    A hull's support touches the hull in every sampled direction, so no line
    is cut off and the envelope's vertices are the intersections of
    consecutive lines.  The two vertices on a sampled line bound its edge;
    if the later one lies behind the earlier by more than _BOUNDARY_TOL
    along the line, the line is loose and ValueError is raised.  Returns
    an (m, 2) polyline deduplicated at _BOUNDARY_TOL.
    """
    lines = _quadrant_lines(dirs, support)
    (a0, b0, h0), (a, b, h) = lines[:-1].T, lines[1:].T
    # the angle step is in (0, 180) degrees, so det > 0
    det = a0 * b - b0 * a
    verts = np.column_stack([(h0 * b - h * b0) / det, (a0 * h - a * h0) / det])
    step = np.diff(verts, axis=0)
    ahead = a[:-1] * step[:, 1] - b[:-1] * step[:, 0]
    loose = np.flatnonzero(ahead < -_BOUNDARY_TOL)
    if loose.size:
        raise ValueError(
            f"support is loose at {loose.size} sampled directions (first at index "
            f"{loose[0]}); a hull's support touches every sampled halfplane"
        )
    return _dedupe(np.clip(verts, 0.0, None))


def _halfplane_envelope(dirs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Vertices of {x >= 0, y >= 0, d_i.x <= h_i}, from the r1 axis to the r2 axis.

    Sorted-angle halfplane intersection (Preparata and Shamos, Computational
    Geometry, 1985): the lines y = 0, then d_i.x = h_i by increasing angle,
    then x = 0 are pushed on a stack; a line first pops every line whose
    vertex with its predecessor it cuts off.  Exact for any h_i >= 0, tight
    or not.  Returns an (m, 2) polyline deduplicated at _BOUNDARY_TOL.
    """
    lines = _quadrant_lines(dirs, support).tolist()
    stack, verts = [lines[0]], []
    for a, b, h in lines[1:]:
        # d.x grows along the chain built so far (every stacked angle is
        # smaller), so the lines to drop are all on top of the stack
        while verts and a * verts[-1][0] + b * verts[-1][1] > h:
            stack.pop()
            verts.pop()
        a0, b0, h0 = stack[-1]
        # the angle step is in (0, 180) degrees, so det > 0
        det = a0 * b - b0 * a
        verts.append(((h0 * b - h * b0) / det, (a0 * h - a * h0) / det))
        stack.append((a, b, h))
    return _dedupe(np.clip(np.array(verts), 0.0, None))


@dataclass(frozen=True)
class ConvexRegion:
    """A convex rate region sampled by its support function.

    directions is an (n, 2) array of unit vectors sorted by strictly
    increasing angle from (1, 0) to (0, 1); support holds the matching
    support values in bits; boundary is the extracted polyline.  provenance
    is a free-text tag of the generating family and grids (used in legends).
    """

    directions: np.ndarray
    support: np.ndarray
    boundary: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=float)
        h = np.asarray(self.support, dtype=float)
        if d.ndim != 2 or d.shape[1] != 2 or d.shape[0] != h.shape[0]:
            raise ValueError("directions and support shapes do not match")
        angles = np.arctan2(d[:, 1], d[:, 0])
        if np.any(np.diff(angles) <= 0.0):
            raise ValueError("directions must be sorted by strictly increasing angle")
        if tuple(d[0]) != (1.0, 0.0) or tuple(d[-1]) != (0.0, 1.0):
            raise ValueError("directions must start at (1,0) and end at (0,1)")
        if not np.all(np.isfinite(h)) or np.any(h < 0.0):
            raise ValueError("support values must be finite and >= 0")
        object.__setattr__(self, "directions", d)
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
        x = (pt.r1, pt.r2) if isinstance(pt, RatePair) else (float(pt[0]), float(pt[1]))
        return bool(np.all(self.directions @ np.asarray(x) <= self.support + tol))


def hull_of_union(
    pentagons: Iterable[Pentagon],
    n_directions: int = DEFAULT_DIRECTIONS,
    provenance: str = "",
) -> ConvexRegion:
    """hull_of_slabs over the bounds of Pentagon objects, as one slab."""
    bounds = np.array(
        [(p.r1_max, p.r2_max, p.sum_max) for p in pentagons], dtype=float
    ).reshape(-1, 3)
    return hull_of_slabs([bounds.T], n_directions, provenance)


def hull_of_slabs(
    slabs: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    n_directions: int = DEFAULT_DIRECTIONS,
    provenance: str = "",
) -> ConvexRegion:
    """Convex hull of a union of pentagons, sampled at n_directions directions.

    The union arrives as (r1, r2, s) slabs of flat bound arrays, consumed one
    at a time.  Bounds must be finite, as in Pentagon; ValueError names the
    count of NaN or infinite bounds over all slabs.  Each slab drops its
    empty pentagons (any negative bound) and joins the survivors so far,
    and of these the pentagons without a top corner that no other corner
    beats are dropped, so only the survivors are held while the next slab
    is evaluated.  Beating is transitive, so every beaten corner is beaten
    by a survivor, and this keeps the same pentagons, in the same order, as
    one prune over the whole union.  Raises ValueError when no pentagon is
    non-empty.  The support at each direction is exactly the max of the
    member supports.
    """
    bad = 0
    r1 = r2 = s = np.empty(0)
    for slab in slabs:
        slab = [np.asarray(v, dtype=float).ravel() for v in slab]
        bad += sum(int(np.count_nonzero(~np.isfinite(v))) for v in slab)
        if bad:
            continue
        # an empty pentagon has no support, but the kernel's closed form
        # would give it one, so it must not survive the prune
        live = (slab[0] >= 0.0) & (slab[1] >= 0.0) & (slab[2] >= 0.0)
        r1, r2, s = (np.concatenate([kept, v[live]]) for kept, v in zip((r1, r2, s), slab))
        own = _owns_undominated_corner(r1, r2, s)
        r1, r2, s = r1[own], r2[own], s[own]
    if bad:
        raise ValueError(f"pentagon bounds must be finite; {bad} are NaN or infinite")
    if not r1.size:
        raise ValueError("all pentagons are empty; nothing to hull")
    dirs = quadrant_directions(n_directions)
    support = support_max_over_pentagons(r1, r2, s, dirs)
    return ConvexRegion.from_support(dirs, support, provenance)


def _check_same_directions(a: ConvexRegion, b: ConvexRegion) -> None:
    if a.directions.shape != b.directions.shape or not np.array_equal(
        a.directions, b.directions
    ):
        raise ValueError("regions are sampled on different direction sets")


def intersect(a: ConvexRegion, b: ConvexRegion, provenance: str = "") -> ConvexRegion:
    """Exact intersection of the sampled halfplanes of two regions.

    The boundary is the envelope of min(a.support, b.support); the support
    is read back off its vertices, since the pointwise min of two support
    functions is loose wherever neither parent's halfplane is tight.
    """
    _check_same_directions(a, b)
    dirs = a.directions
    boundary = _halfplane_envelope(dirs, np.minimum(a.support, b.support))
    support = np.max(boundary @ dirs.T, axis=0)
    return ConvexRegion(directions=dirs, support=support, boundary=boundary,
                        provenance=provenance)


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
    """
    _check_same_directions(inner, outer)
    diff = inner.support - outer.support
    i = int(np.argmax(diff))
    return SubsetReport(
        is_subset=bool(diff[i] <= tol),
        worst_direction=(float(inner.directions[i, 0]), float(inner.directions[i, 1])),
        worst_violation=float(diff[i]),
    )
