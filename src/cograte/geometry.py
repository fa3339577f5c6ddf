"""Convex-region machinery for the 2-D rate plane.

A region is represented by support-function samples over the first-quadrant
arc: the convex hull of a union of pentagons has support equal to the
pointwise max of the member supports, so unions over millions of pentagons
reduce to running maxima per direction with O(1) memory per direction.
Only pentagons with a top corner that no other corner beats are evaluated;
the rest never attain the maximum, so the result is the same float.  Every
hull is built by hull_of_slabs, which takes a union as slabs: each slab is
pruned on its own, and only its survivors are kept while the next slab is
evaluated.
Every boundary polyline, of a hull or of an intersection of regions, is the
exact intersection of the sampled halfplanes with the nonnegative quadrant,
traced by one sorted-angle halfplane intersection.
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

#: Cells (pentagons x directions) per chunk of the support-maximum kernel.
_CHUNK_CELLS = 2**22


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


def _owns_undominated_corner(r1: np.ndarray, r2: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mask of the pentagons with a top corner that no other corner beats.

    Beating means exceeding by more than _BOUNDARY_TOL in both coordinates,
    which lowers the support in every unit first-quadrant direction by at
    least that much, far above roundoff; so a pentagon whose two top corners
    are both beaten is never the maximum.  Maxima of a set of vectors (Kung,
    Luccio and Preparata, JACM 1975): sort by x, running max of y, bisect.
    """
    n = r1.size
    x_first = np.minimum(r1, s)
    y_second = np.minimum(r2, s)
    x = np.concatenate([x_first, np.minimum(r1, s - y_second)])
    y = np.concatenate([np.minimum(r2, s - x_first), y_second])
    order = np.argsort(x)
    x, y = x[order], y[order]
    # best_y[i] is the largest y among the corners sorted at or after i
    best_y = np.append(np.maximum.accumulate(y[::-1])[::-1], -np.inf)
    first_ahead = np.searchsorted(x, x + _BOUNDARY_TOL, side="right")
    beaten = np.empty(2 * n, dtype=bool)
    beaten[order] = best_y[first_ahead] > y + _BOUNDARY_TOL
    return ~(beaten[:n] & beaten[n:])


def support_max_over_pentagons(
    r1: np.ndarray, r2: np.ndarray, s: np.ndarray, dirs: np.ndarray
) -> np.ndarray:
    """Per-direction max support over a batch of non-empty pentagons.

    Uses the LP-dual closed form: for a pentagon (a, b, c) and direction
    (dx, dy) the support is min(dx*a + dy*b, m*c + (dx-m)*a + (dy-m)*b,
    M*c) with m = min(dx, dy), M = max(dx, dy).  The first two terms
    collapse to dx*a + dy*b - m*max(a + b - c, 0), and the third can only
    bind when the sum constraint is active, so each chunk reduces to a few
    products plus an elementwise min.  Chunks of at most _CHUNK_CELLS
    pentagon-direction cells bound temporary memory.  Every pentagon is
    evaluated; hull_of_slabs passes only those its prune keeps.
    """
    r1 = np.asarray(r1, dtype=float).ravel()
    r2 = np.asarray(r2, dtype=float).ravel()
    s = np.asarray(s, dtype=float).ravel()
    if r1.size == 0:
        raise ValueError("no pentagons supplied")
    dx = dirs[:, 0][None, :]
    dy = dirs[:, 1][None, :]
    dmax = np.maximum(dx, dy)
    dmin_neg = -np.minimum(dx, dy)
    excess = np.maximum(r1 + r2 - s, 0.0)
    best = np.full(dirs.shape[0], -np.inf)
    rows = max(1, _CHUNK_CELLS // dirs.shape[0])
    # broadcasting instead of matmul keeps results bitwise independent of
    # the chunk and batch sizes
    for lo in range(0, r1.size, rows):
        hi = lo + rows
        h = r1[lo:hi, None] * dx + r2[lo:hi, None] * dy
        h += excess[lo:hi, None] * dmin_neg
        np.minimum(h, s[lo:hi, None] * dmax, out=h)
        np.maximum(best, h.max(axis=0), out=best)
    return best


def _halfplane_envelope(dirs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Vertices of {x >= 0, y >= 0, d_i.x <= h_i}, from the r1 axis to the r2 axis.

    Sorted-angle halfplane intersection (Preparata and Shamos, Computational
    Geometry, 1985): the lines y = 0, then d_i.x = h_i by increasing angle,
    then x = 0 are pushed on a stack; a line first pops every line whose
    vertex with its predecessor it cuts off.  Exact for any h_i >= 0, tight
    or not.  Returns an (m, 2) polyline deduplicated at _BOUNDARY_TOL.
    """
    lines = [(0.0, -1.0, 0.0)]
    lines += zip(dirs[:, 0].tolist(), dirs[:, 1].tolist(), support.tolist())
    lines.append((-1.0, 0.0, 0.0))
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
    pts = np.clip(np.array(verts), 0.0, None)
    xy = pts.tolist()
    keep = [0]
    for i in range(1, len(xy)):
        kx, ky = xy[keep[-1]]
        if abs(xy[i][0] - kx) > _BOUNDARY_TOL or abs(xy[i][1] - ky) > _BOUNDARY_TOL:
            keep.append(i)
    return pts[keep]


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
        boundary = _halfplane_envelope(directions, np.asarray(support, dtype=float))
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
    empty pentagons (any negative bound) and then the pentagons without a
    top corner that no other corner of the slab beats, so only its
    survivors are held while the next slab is evaluated.  Raises ValueError
    when no pentagon is non-empty.  The maxima of a union are the maxima of
    the union of each part's maxima, so when more than one slab contributed,
    one more prune over the survivors keeps the same pentagons as one prune
    over the whole union.  The support at each direction is exactly the max
    of the member supports.
    """
    bad = 0
    kept = []
    for r1, r2, s in slabs:
        r1, r2, s = (np.asarray(v, dtype=float).ravel() for v in (r1, r2, s))
        bad += sum(int(np.count_nonzero(~np.isfinite(v))) for v in (r1, r2, s))
        if bad:
            continue
        # an empty pentagon has no support, but the kernel's closed form
        # would give it one, so it must not survive the prune
        live = (r1 >= 0.0) & (r2 >= 0.0) & (s >= 0.0)
        r1, r2, s = r1[live], r2[live], s[live]
        own = _owns_undominated_corner(r1, r2, s)
        if np.any(own):
            kept.append((r1[own], r2[own], s[own]))
    if bad:
        raise ValueError(f"pentagon bounds must be finite; {bad} are NaN or infinite")
    if not kept:
        raise ValueError("all pentagons are empty; nothing to hull")
    r1, r2, s = (np.concatenate(parts) for parts in zip(*kept))
    if len(kept) > 1:
        own = _owns_undominated_corner(r1, r2, s)
        r1, r2, s = r1[own], r2[own], s[own]
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
