"""Support functions, union hulls, halfplane envelopes, intersections, gaps."""

import math

import numpy as np
import pytest

from cograte.bounds import co1_region
from cograte.gaussian import capacity_region, g2_region, g3p_region, g_region
from cograte.model import ChannelParams, Pentagon, RatePair
from cograte import geometry
from cograte.geometry import (
    ConvexRegion,
    directed_gap,
    hull_of_slabs,
    hull_of_union,
    intersect,
    pentagon_support,
    quadrant_directions,
    subset_within,
    support_max_over_pentagons,
)

SQ2 = math.sqrt(2.0)


def _hull(*pentagons, n=721):
    return hull_of_union(list(pentagons), n_directions=n)


class TestQuadrantDirections:
    def test_endpoints_and_count(self):
        d = quadrant_directions(721)
        assert d.shape == (721, 2)
        assert tuple(d[0]) == (1.0, 0.0)
        assert tuple(d[-1]) == (0.0, 1.0)

    def test_five_directions_hit_named_angles(self):
        d = quadrant_directions(5)
        angles = np.degrees(np.arctan2(d[:, 1], d[:, 0]))
        assert np.allclose(angles, [0.0, 22.5, 45.0, 67.5, 90.0], atol=1e-12)

    def test_unit_norm_and_strictly_increasing(self):
        d = quadrant_directions(91)
        assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 1.0, atol=1e-12)
        angles = np.arctan2(d[:, 1], d[:, 0])
        assert np.all(np.diff(angles) > 0)

    def test_too_few_directions(self):
        with pytest.raises(ValueError, match="at least 3"):
            quadrant_directions(2)


class TestPentagonSupport:
    def test_axis_direction(self):
        assert pentagon_support(Pentagon(1, 1, 1.5), (1.0, 0.0)) == 1.0

    def test_diagonal_sum_face_active(self):
        h = pentagon_support(Pentagon(1, 1, 1.5), (1 / SQ2, 1 / SQ2))
        assert h == pytest.approx(1.5 / SQ2, abs=1e-12)

    def test_diagonal_corner_active(self):
        h = pentagon_support(Pentagon(1, 1, 3), (1 / SQ2, 1 / SQ2))
        assert h == pytest.approx(SQ2, abs=1e-12)

    def test_empty_pentagon_rejected(self):
        with pytest.raises(ValueError, match="empty region has no support"):
            pentagon_support(Pentagon(-0.2, 1, 1.5), (1.0, 0.0))

    def test_bad_directions_rejected(self):
        with pytest.raises(ValueError, match="unit length"):
            pentagon_support(Pentagon(1, 1, 1.5), (1.0, 1.0))
        with pytest.raises(ValueError, match="first quadrant"):
            pentagon_support(Pentagon(1, 1, 1.5), (-1.0, 0.0))

    def test_batched_max_matches_scalar(self):
        # the batched kernel uses a rearranged formula; agreement is exact
        # up to floating-point summation order
        rng = np.random.default_rng(3)
        dirs = quadrant_directions(181)
        a = rng.uniform(0.0, 3.0, 300)
        b = rng.uniform(0.0, 3.0, 300)
        c = rng.uniform(0.3, 5.0, 300)
        fast = support_max_over_pentagons(a, b, c, dirs)
        slow = np.full(dirs.shape[0], -np.inf)
        for i in range(a.size):
            p = Pentagon(a[i], b[i], c[i])
            slow = np.maximum(
                slow, [pentagon_support(p, (dx, dy)) for dx, dy in dirs]
            )
        assert np.abs(fast - slow).max() <= 1e-13

        # pruning in the hull must not change a single float: adversarial
        # additions against the max over one-pentagon kernel calls
        extra = np.array([
            (1.0, 1.0, 1.5), (1.0, 1.0, 1.5),            # duplicates
            (1.0 + 1e-10, 1.0, 1.5 + 1e-10),             # near-tie
            (1.0, 1.0 - 1e-10, 1.5 - 1e-10),
            (0.5, 0.7, 2.0), (2.9, 0.1, 3.0),            # r1 + r2 <= s
            (4.0, 0.5, 2.5), (0.5, 4.0, 2.5),            # r1 > s, r2 > s
            (0.0, 0.0, 0.0), (0.0, 3.0, 3.0), (3.0, 0.0, 3.0),  # zero bounds
        ])
        mixed = [np.concatenate([v, e]) for v, e in zip((a, b, c), extra.T)]
        for a, b, c in (extra.T, mixed):
            single = np.max(
                [support_max_over_pentagons(a[i:i + 1], b[i:i + 1], c[i:i + 1], dirs)
                 for i in range(a.size)],
                axis=0,
            )
            pruned = hull_of_slabs([(a, b, c)], dirs.shape[0]).support
            assert np.array_equal(pruned, single)

    def test_prune_drops_only_pentagons_beaten_beyond_tolerance(self):
        # box pentagons (r1 + r2 <= s): both top corners are (r1, r2)
        for corner, kept in (((1 - 1e-6, 1 - 1e-6), False),
                             ((1 - 1e-10, 1 - 1e-10), True),
                             ((1 - 1e-6, 1 + 1e-10), True),
                             ((1 + 1e-10, 1 - 1e-6), True)):
            r1, r2 = np.array([(1.0, 1.0), corner]).T
            mask = geometry._owns_undominated_corner(r1, r2, np.full(2, 10.0))
            assert mask.tolist() == [True, kept], corner

    def test_order_repeats_slabs_and_blocks_do_not_change_the_support(self, monkeypatch):
        # box pentagons with corners on a quarter circle (each one a maximum)
        # beside random ones
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, np.pi / 2.0, 500)
        a = np.concatenate([3.0 * np.cos(t), rng.uniform(0.0, 3.0, 200)])
        b = np.concatenate([3.0 * np.sin(t), rng.uniform(0.0, 3.0, 200)])
        c = np.concatenate([np.full(t.size, 10.0), rng.uniform(0.3, 5.0, 200)])
        dirs = quadrant_directions(181)
        ref = support_max_over_pentagons(a, b, c, dirs)
        shuffled = rng.permutation(a.size)
        assert np.array_equal(
            support_max_over_pentagons(a[shuffled], b[shuffled], c[shuffled], dirs), ref)
        twice = [np.concatenate([v, v[::-1]]) for v in (a, b, c)]
        assert np.array_equal(support_max_over_pentagons(*twice, dirs), ref)
        cuts = [0, 1, 250, 499, 500, 700]
        slabs = [(a[i:j], b[i:j], c[i:j]) for i, j in zip(cuts, cuts[1:])]
        assert np.array_equal(hull_of_slabs(slabs, 181).support,
                              hull_of_slabs([(a, b, c)], 181).support)
        assert np.array_equal(hull_of_slabs([(a, b, c)], 181).support, ref)
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", 7)
        assert np.array_equal(support_max_over_pentagons(a, b, c, dirs), ref)


def _broadcast_support(r1, r2, s, dirs):
    """The closed form over every pentagon-direction cell, max over pentagons."""
    dx = dirs[:, 0][None, :]
    dy = dirs[:, 1][None, :]
    h = r1[:, None] * dx + r2[:, None] * dy
    h += np.maximum(r1 + r2 - s, 0.0)[:, None] * -np.minimum(dx, dy)
    np.minimum(h, s[:, None] * np.maximum(dx, dy), out=h)
    return h.max(axis=0)


def _kernel_families():
    """(name, r1, r2, s) batches of non-empty pentagons, ties on purpose."""
    rng = np.random.default_rng(41)
    fams = []
    for i in range(3):
        r1, r2 = rng.uniform(0.0, 3.0, (2, 300))
        fams.append((f"random{i}", r1, r2, rng.uniform(0.3, 5.0, 300)))
        r1, r2 = rng.uniform(0.0, 2.0, (2, 100))
        fams.append((f"box{i}", r1, r2, r1 + r2 + rng.uniform(0.0, 1.0, 100)))
    t = np.linspace(0.0, np.pi / 2.0, 400)
    fams.append(("quarter-circle", 3.0 * np.cos(t), 3.0 * np.sin(t), np.full(t.size, 10.0)))
    fams.append(("single", np.array([1.0]), np.array([1.0]), np.array([1.5])))
    fams.append(("duplicates", np.full(50, 0.9), np.full(50, 1.1), np.full(50, 1.6)))
    for i in range(20):
        # bounds on a 0.1 grid: repeated, coincident and collinear corners
        r1, r2, s = rng.integers(0, 31, (3, 60)) / 10.0
        fams.append((f"grid{i}", r1, r2, np.maximum(s, 0.1)))
        # corners on x + y = 3, all tied at 45 degrees: sum faces of a
        # shared sum bound, and box corners of r1 + r2 = 3
        k = rng.integers(0, 31, 40) / 10.0
        cut = rng.random(40) < 0.5
        r2 = np.where(cut, 3.0 - k + rng.integers(1, 10, 40) / 10.0, 3.0 - k)
        s = np.where(cut, 3.0, 3.0 + rng.integers(0, 5, 40) / 10.0)
        fams.append((f"diagonal{i}", k, r2, s))
    for i in range(10):
        # copies of corners on a circle, a few units in the last place apart
        t = np.sort(rng.uniform(0.0, np.pi / 2.0, 30))
        pick = rng.integers(0, 30, 180)
        r1, r2 = 2.0 * np.cos(t)[pick], 2.0 * np.sin(t)[pick]
        r1 = r1 + rng.integers(-4, 5, 180) * np.spacing(r1)
        r2 = r2 + rng.integers(-4, 5, 180) * np.spacing(r2)
        s = r1 + r2 - np.where(rng.random(180) < 0.5, 0.01, 0.0)
        fams.append((f"ulps{i}", r1, r2, s))
    return fams


@pytest.mark.parametrize("n_directions", [181, 721])
def test_kernel_matches_the_broadcast_formula_bit_for_bit(n_directions):
    dirs = quadrant_directions(n_directions)
    for name, r1, r2, s in _kernel_families():
        got = support_max_over_pentagons(r1, r2, s, dirs)
        assert np.array_equal(got, _broadcast_support(r1, r2, s, dirs)), name


class TestHullOfUnion:
    def test_single_pentagon_boundary_vertices(self):
        reg = _hull(Pentagon(1, 1, 1.5))
        got = {(round(x, 6), round(y, 6)) for x, y in reg.boundary.tolist()}
        assert got == {(1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0)}

    def test_time_sharing_point_is_inside(self):
        reg = _hull(Pentagon(1, 0.2, 1.2), Pentagon(0.2, 1, 1.2))
        # midpoint of the corners (1,0.2) and (0.2,1)
        assert reg.contains(RatePair(0.6, 0.6), tol=1e-9)
        assert not Pentagon(1, 0.2, 1.2).contains(RatePair(0.6, 0.6))
        assert not Pentagon(0.2, 1, 1.2).contains(RatePair(0.6, 0.6))

    def test_idempotence_on_equal_pentagons(self):
        p = Pentagon(0.9, 1.1, 1.6)
        one = _hull(p)
        many = _hull(*([p] * 7))
        assert np.array_equal(one.support, many.support)

    def test_empty_pentagons_skipped(self):
        reg = _hull(Pentagon(-1, 1, 1), Pentagon(1, 1, 1.5))
        ref = _hull(Pentagon(1, 1, 1.5))
        assert np.array_equal(reg.support, ref.support)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError, match="2 are NaN or infinite"):
            hull_of_slabs([([1.0, np.nan, 1.0], [1.0, 1.0, 1.0], [1.5, 1.5, np.inf])])

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _hull(Pentagon(-1, 1, 1), Pentagon(1, -1, 1))

    def test_support_is_pointwise_max_of_members(self):
        rng = np.random.default_rng(17)
        dirs = quadrant_directions(361)
        pens = [
            Pentagon(rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.5, 3))
            for _ in range(6)
        ]
        reg = hull_of_union(pens, n_directions=361)
        expect = np.max(
            [[pentagon_support(p, (dx, dy)) for dx, dy in dirs] for p in pens],
            axis=0,
        )
        assert np.abs(reg.support - expect).max() <= 1e-13

    def test_boundary_satisfies_all_support_constraints(self):
        reg = _hull(Pentagon(1, 0.2, 1.2), Pentagon(0.2, 1, 1.2), Pentagon(0.7, 0.7, 1))
        slack = reg.boundary @ reg.directions.T - reg.support[None, :]
        assert slack.max() <= 1e-9

    def test_boundary_points_distinct(self):
        reg = _hull(Pentagon(1, 1, 1.5), Pentagon(0.5, 1.2, 1.4))
        pts = reg.boundary
        d = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        assert d.min() > 1e-9


def _kernel_input(monkeypatch, slabs, n_directions=181):
    """hull_of_slabs over slabs, and the bounds its prune passes to the kernel."""
    seen = []

    def recorded(r1, r2, s, dirs):
        seen.append((r1.tolist(), r2.tolist(), s.tolist()))
        return support_max_over_pentagons(r1, r2, s, dirs)

    monkeypatch.setattr(geometry, "support_max_over_pentagons", recorded)
    reg = hull_of_slabs(slabs, n_directions)
    (bounds,) = seen
    return reg, bounds


class TestUndominatedPentagons:
    def test_empty_pentagon_does_not_prune_a_real_one(self, monkeypatch):
        # r1 < 0 makes it empty, though its other bounds dwarf the real one
        slab = ([-1e-3, 1.0], [100.0, 1.0], [100.0, 1.5])
        reg, bounds = _kernel_input(monkeypatch, [slab])
        assert bounds == ([1.0], [1.0], [1.5])
        assert np.array_equal(reg.support, _hull(Pentagon(1.0, 1.0, 1.5), n=181).support)

    def test_non_finite_bounds_are_counted_over_all_slabs(self):
        slabs = [([1.0, np.nan], [1.0, 1.0], [1.5, 1.5]),
                 ([1.0], [np.inf], [np.nan])]
        with pytest.raises(ValueError, match="3 are NaN or infinite"):
            hull_of_slabs(slabs)

    def test_all_slabs_empty_rejected(self):
        slabs = [([-1.0], [1.0], [1.0]), ([1.0], [-1.0], [1.0])]
        with pytest.raises(ValueError, match="all pentagons are empty"):
            hull_of_slabs(slabs)

    def test_running_prune_matches_one_prune(self, monkeypatch):
        rng = np.random.default_rng(5)
        r1, r2 = rng.uniform(0.0, 2.0, (2, 3000))
        s = rng.uniform(0.5, 1.0, 3000) * (r1 + r2)
        whole, whole_bounds = _kernel_input(monkeypatch, [(r1, r2, s)])
        cuts = [0, 7, 1000, 1001, 2500, 3000]
        slabs = [(r1[a:b], r2[a:b], s[a:b]) for a, b in zip(cuts, cuts[1:])]
        survivors = [geometry._owns_undominated_corner(*slab).sum() for slab in slabs]
        assert sum(survivors) > len(whole_bounds[0])
        pieces, piece_bounds = _kernel_input(monkeypatch, slabs)
        assert piece_bounds == whole_bounds
        assert np.array_equal(pieces.support, whole.support)
        assert np.array_equal(pieces.boundary, whole.boundary)

    def test_size_zero_slabs_contribute_nothing(self, monkeypatch):
        slab = ([1.0, 0.5], [0.5, 1.0], [1.2, 1.2])
        zero = ([], [], [])
        one, one_bounds = _kernel_input(monkeypatch, [slab])
        mixed, mixed_bounds = _kernel_input(monkeypatch, [zero, slab, zero])
        assert mixed_bounds == one_bounds
        assert np.array_equal(mixed.support, one.support)
        with pytest.raises(ValueError, match="all pentagons are empty"):
            hull_of_slabs([zero, zero])

    def test_one_shot_generator_is_consumed_once(self):
        rng = np.random.default_rng(9)
        r1, r2 = rng.uniform(0.0, 2.0, (2, 300))
        s = rng.uniform(0.5, 1.0, 300) * (r1 + r2)
        slabs = [(r1[a:a + 50], r2[a:a + 50], s[a:a + 50]) for a in range(0, 300, 50)]
        taken = []

        def generate():
            for slab in slabs:
                taken.append(len(slab[0]))
                yield slab

        reg = hull_of_slabs(generate(), 181)
        assert taken == [50] * 6
        assert np.array_equal(reg.support, hull_of_slabs([(r1, r2, s)], 181).support)


class TestHalfplaneEnvelope:
    def _loose_45_degree_sample(self):
        dirs = quadrant_directions(5)
        h = np.array([pentagon_support(Pentagon(1, 1, 1.5), d) for d in dirs])
        h[2] = 5.0  # the 45-degree sample is redundant
        return dirs, h

    def test_vertex_between_tight_halfplanes_around_a_loose_one(self):
        dirs, h = self._loose_45_degree_sample()
        boundary = geometry._halfplane_envelope(dirs, h)
        # the 22.5- and 67.5-degree lines meet on the diagonal
        v = h[1] / (dirs[1, 0] + dirs[1, 1])
        assert v == pytest.approx(0.853553, abs=1e-6)
        expect = [(1, 0), (1, 0.5), (v, v), (0.5, 1), (0, 1)]
        assert np.abs(boundary - np.array(expect)).max() <= 1e-12

    def test_hull_boundary_refuses_a_loose_halfplane(self):
        dirs, h = self._loose_45_degree_sample()
        with pytest.raises(ValueError, match="loose at 1 sampled directions"):
            ConvexRegion.from_support(dirs, h)

    def test_hulls_never_take_the_stack_path(self, monkeypatch):
        def refuse(dirs, support):
            raise AssertionError("halfplane stack used")

        monkeypatch.setattr(geometry, "_halfplane_envelope", refuse)
        a = _hull(Pentagon(1, 0.2, 1.2), Pentagon(0.7, 0.7, 1.0), n=181)
        b = _hull(Pentagon(0.2, 1, 1.2), n=181)
        with pytest.raises(AssertionError, match="stack"):
            intersect(a, b)

    @pytest.mark.parametrize("b", [1.0, 1.3628, 3.3628])
    def test_hull_boundary_matches_the_stack_on_the_paper_families(self, b):
        ch = ChannelParams(6.0, 6.0, b)
        for reg in (g2_region(ch), g3p_region(ch), capacity_region(ch), co1_region(ch)):
            stack = geometry._halfplane_envelope(reg.directions, reg.support)
            assert reg.boundary.shape == stack.shape, reg.provenance
            assert np.abs(reg.boundary - stack).max() <= 1e-12, reg.provenance

    def test_hull_boundary_matches_the_stack_on_the_fig3_g_family(self):
        for b in (1.3628, 3.3628):
            reg = g_region(ChannelParams(6.0, 6.0, b), 101, 101, 101)
            stack = geometry._halfplane_envelope(reg.directions, reg.support)
            assert reg.boundary.shape == stack.shape
            assert np.abs(reg.boundary - stack).max() <= 1e-12

    def test_boundary_ends_exactly_on_the_axes(self):
        # g3p at b = 1.3628 tops out on the r2 axis, where the lines of the
        # last two samples meet a roundoff width away from it
        reg = g3p_region(ChannelParams(6.0, 6.0, 1.3628))
        stack = geometry._halfplane_envelope(reg.directions, reg.support)
        for boundary in (reg.boundary, stack):
            assert boundary[0, 1] == 0.0 and boundary[0, 0] == reg.support[0]
            assert boundary[-1, 0] == 0.0 and boundary[-1, 1] == reg.support[-1]
            assert np.abs(boundary[-2] - boundary[-1]).max() > geometry._BOUNDARY_TOL

    def test_intersect_is_exact_where_no_sample_is_tight(self):
        # two hulls crossing in the square [0, 0.2]^2: every sampled
        # halfplane strictly between the axes is loose at its corner
        a = _hull(Pentagon(1, 0.2, 1.2), n=181)
        b = _hull(Pentagon(0.2, 1, 1.2), n=181)
        reg = intersect(a, b, provenance="square")
        assert reg.provenance == "square"
        assert np.abs(reg.boundary - [[0.2, 0], [0.2, 0.2], [0, 0.2]]).max() <= 1e-12
        d = reg.directions
        expect = 0.2 * (d[:, 0] + d[:, 1])
        assert np.abs(reg.support - expect).max() <= 1e-12
        with pytest.raises(ValueError, match="direction"):
            intersect(a, _hull(Pentagon(1, 1, 1.5), n=91))


class TestRegionContains:
    def test_interior_point(self):
        reg = _hull(Pentagon(1, 1, 1.5))
        assert reg.contains(RatePair(0.7, 0.7), tol=1e-9)

    def test_point_beyond_r1_support(self):
        reg = _hull(Pentagon(1, 1, 1.5))
        assert not reg.contains(RatePair(1.2, 0.0), tol=1e-9)

    def test_boundary_vertices_contained(self):
        reg = _hull(Pentagon(1, 1, 1.5))
        for pt in reg.boundary.tolist():
            assert reg.contains(pt, tol=1e-9)


class TestDirectedGap:
    def test_identical_regions(self):
        reg = _hull(Pentagon(1, 1, 1.5))
        assert directed_gap(reg, reg) == 0.0

    def test_nested_pentagons(self):
        outer = _hull(Pentagon(1, 1, 2))
        inner = _hull(Pentagon(1, 1, 1.5))
        assert directed_gap(outer, inner) == pytest.approx(0.5 / SQ2, abs=1e-9)

    def test_sign_is_antisymmetric_per_direction(self):
        a = _hull(Pentagon(1, 0.4, 1.2))
        b = _hull(Pentagon(0.4, 1, 1.2))
        diff = a.support - b.support
        assert np.array_equal(diff, -(b.support - a.support))
        # overlapping but incomparable regions: both directed gaps positive
        assert directed_gap(a, b) > 0
        assert directed_gap(b, a) > 0

    def test_direction_set_mismatch(self):
        a = _hull(Pentagon(1, 1, 1.5), n=181)
        b = _hull(Pentagon(1, 1, 1.5), n=721)
        with pytest.raises(ValueError, match="direction"):
            directed_gap(a, b)


class TestSubsetWithin:
    def test_equal_regions(self):
        reg = _hull(Pentagon(1, 1, 1.5))
        rep = subset_within(reg, reg, tol=0.0)
        assert rep.is_subset
        assert rep.worst_violation == 0.0

    def test_violation_reported_at_diagonal(self):
        inner = _hull(Pentagon(1, 1, 2))
        outer = _hull(Pentagon(1, 1, 1.5))
        rep = subset_within(inner, outer, tol=1e-3)
        assert not rep.is_subset
        assert rep.worst_violation == pytest.approx(0.5 / SQ2, abs=1e-9)
        assert rep.worst_direction_deg == pytest.approx(45.0, abs=0.25)

    def test_tolerance_absorbs_violation(self):
        inner = _hull(Pentagon(1, 1, 2))
        outer = _hull(Pentagon(1, 1, 1.5))
        assert subset_within(inner, outer, tol=0.4).is_subset


def _monotone_chain(points):
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _sample_inside(rng, p, n):
    """Rejection-sample n points uniformly from a non-empty pentagon."""
    out = []
    a = min(p.r1_max, p.sum_max)
    b = min(p.r2_max, p.sum_max)
    while len(out) < n:
        x = rng.uniform(0.0, a if a > 0 else 1e-12)
        y = rng.uniform(0.0, b if b > 0 else 1e-12)
        if x + y <= p.sum_max:
            out.append((x, y))
    return out


def test_hull_matches_point_cloud_oracle():
    rng = np.random.default_rng(29)
    dirs = quadrant_directions(721)
    for trial in range(3):
        k = int(rng.integers(2, 9))
        pens = [
            Pentagon(
                rng.uniform(0.1, 2.0),
                rng.uniform(0.1, 2.0),
                rng.uniform(0.4, 3.5),
            )
            for _ in range(k)
        ]
        reg = hull_of_union(pens, n_directions=721)
        cloud = [(0.0, 0.0)]
        for p in pens:
            cloud.extend(p.vertices())
            cloud.extend(_sample_inside(rng, p, 10_000 // k))
        hull = np.array(_monotone_chain(cloud))
        oracle = (hull @ dirs.T).max(axis=0)
        assert np.abs(reg.support - oracle).max() <= 2e-3
