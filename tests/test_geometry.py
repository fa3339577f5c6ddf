"""Support functions, union hulls, halfplane envelopes, intersections, gaps."""

import math

import numpy as np
import pytest

from cograte.bounds import _co1_arrays, bcdms_region, co1_region
from cograte.gaussian import (
    _capacity_arrays,
    _g2_arrays,
    _g3p_arrays,
    capacity_region,
    g2_region,
    g3p_region,
    g_region,
)
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


def _sliced(slabs, n=181, taken=None):
    """hull_of_slabs with the first slab as its seed and the others as its
    rows; taken, when given, records each screen rows is called with."""
    seed, *rest = slabs

    def rows(screen):
        if taken is not None:
            taken.append(screen)
        return (slab for slab in rest)

    return hull_of_slabs(seed, n, rows=rows)


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

    def test_built_once_per_n_and_read_only(self):
        d = quadrant_directions(181)
        assert quadrant_directions(181) is d
        assert hull_of_union([Pentagon(1.0, 1.0, 1.5)], 181).directions is d
        with pytest.raises(ValueError, match="read-only"):
            d[0, 0] = 2.0


class TestDirectionTable:
    def test_cached_table_is_read_only(self):
        table = geometry._quadrant_table(181)
        assert table.dirs is quadrant_directions(181)
        for name, arr in table._asdict().items():
            assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            table.det[0] = 1.0

    @pytest.mark.parametrize("n", [3, 5, 181, 721])
    def test_any_other_direction_array_is_refused_with_one_message(self, n):
        # a copy, a read-only copy, a list, one of another count and a
        # reordered one: only quadrant_directions(n)'s own array is sampled
        dirs = quadrant_directions(n)
        frozen = dirs.copy()
        frozen.flags.writeable = False
        backwards = dirs[::-1].copy()
        backwards.flags.writeable = False
        ch = ChannelParams(6.0, 6.0, 2.0)
        r1, r2, s = _g2_arrays(ch, np.linspace(0.0, 1.0, 51))
        support = support_max_over_pentagons(r1, r2, s, dirs)
        region = ConvexRegion.from_support(dirs, support)
        foreign = (dirs.copy(), frozen, backwards, dirs.tolist(), quadrant_directions(n + 1)[:n])
        calls = (lambda d: support_max_over_pentagons(r1, r2, s, d),
                 lambda d: ConvexRegion.from_support(d, support),
                 lambda d: ConvexRegion(d, support, region.boundary))
        messages = set()
        for other in foreign:
            for call in calls:
                with pytest.raises(ValueError) as err:
                    call(other)
                messages.add(str(err.value))
        assert messages == {"directions must be the array quadrant_directions(n) returns"}

    def test_a_region_keeps_its_directions_while_others_are_built(self):
        # regions are matched to their table by identity, so a table once
        # built is never dropped for others
        a = hull_of_union([Pentagon(1.0, 1.0, 1.5)], 103)
        for n in range(3, 40):
            hull_of_union([Pentagon(1.0, 1.0, 1.5)], n)
        b = hull_of_union([Pentagon(1.5, 0.5, 1.75)], 103)
        assert b.directions is a.directions
        assert intersect(a, b).directions is a.directions
        assert ConvexRegion(a.directions, a.support, a.boundary).directions is a.directions

    def test_the_direction_count_is_held_to_its_cap(self):
        for n in (3, 4, 7, 4095, 4096, geometry.MAX_DIRECTIONS):
            angles = geometry._quadrant_table(n).angles
            assert np.all(np.diff(angles) > 0.0), n
        for n in (geometry.MAX_DIRECTIONS + 1, 10**9):
            with pytest.raises(ValueError, match=r"at least 3 and at most 4097 directions"):
                quadrant_directions(n)
        with pytest.raises(ValueError, match="at most 4097 directions"):
            hull_of_union([Pentagon(1.0, 1.0, 1.5)], geometry.MAX_DIRECTIONS + 1)


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
            pruned = hull_of_slabs((a, b, c), dirs.shape[0]).support
            assert np.array_equal(pruned, single)

    def test_prune_drops_only_pentagons_beaten_beyond_tolerance(self, monkeypatch):
        # box pentagons (r1 + r2 <= s): both top corners are (r1, r2), and
        # the first slab's chain is its one corner (1, 1), which dominates
        # a corner below it even within tolerance
        for corner, kept in (((1 - 1e-6, 1 - 1e-6), False),
                             ((1 - 1e-10, 1 - 1e-10), False),
                             ((1 - 1e-6, 1 + 1e-10), True),
                             ((1 + 1e-10, 1 - 1e-6), True)):
            slabs = [([1.0], [1.0], [10.0]), ([corner[0]], [corner[1]], [10.0])]
            _, bounds = _kernel_input(monkeypatch, slabs)
            assert bounds[0] == [1.0] + ([corner[0]] if kept else []), corner

    def test_order_repeats_and_slabs_do_not_change_the_support(self):
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
        assert np.array_equal(_sliced(slabs).support, hull_of_slabs((a, b, c), 181).support)
        assert np.array_equal(hull_of_slabs((a, b, c), 181).support, ref)


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
    grid = np.linspace(0.0, 1.0, 201)
    for b in (1.5, 2.0, 4.0):
        # at P2 = 0 every pentagon owns the top corner (0, s): co1 with one
        # s, capacity with s up to an ulp apart
        ch = ChannelParams(6.0, 0.0, b)
        fams.append((f"co1-p2zero-b{b:g}", *_co1_arrays(ch, grid)))
        fams.append((f"capacity-p2zero-b{b:g}", *_capacity_arrays(ch, grid)))
    for i in range(5):
        # sum faces that share the corner (0, s), with one s and with s a
        # few ulps apart; r2 = s or above it
        r1 = rng.uniform(0.0, 3.0, 80)
        over = np.where(rng.random(80) < 0.5, 0.0, rng.uniform(0.0, 1.0, 80))
        fams.append((f"shared-corner{i}", r1, 3.0 + over, np.full(80, 3.0)))
        s = 3.0 + rng.integers(-4, 5, 80) * np.spacing(3.0)
        fams.append((f"shared-corner-ulps{i}", r1, s + over, s))
        # the largest-cap candidate is a box whose corner lies far below its
        # sum line, so no cell reaches the cap and every candidate is
        # evaluated: boxes sharing one corner, and sum faces sharing (0, 3)
        # beside a box with that corner and sum bound 10
        fams.append((f"slack-cap{i}", np.full(60, 1.0), np.full(60, 2.0),
                     3.0 + rng.uniform(0.5, 5.0, 60)))
        fams.append((f"slack-cap-shared{i}", np.append(r1[:60], 0.0),
                     np.full(61, 3.0), np.append(np.full(60, 3.0), 10.0)))
        # sum faces through (0, 3), the first exactly at its cap, beside
        # boxes a few ulps to the right of that corner whose larger sum
        # bounds are slack: the boxes hold the maximum, so a sum face that
        # reaches its own cap settles nothing
        k = rng.integers(1, 9, 20)
        fams.append((f"box-right-of-shared{i}",
                     np.concatenate([[0.0], r1[:20], k * np.spacing(3.0)]),
                     np.full(41, 3.0),
                     np.concatenate([np.full(21, 3.0), 3.0 + rng.uniform(1.0, 5.0, 20)])))
    return fams


def _corner_support(r1, r2, s, dirs):
    """dx*x + dy*y over every top corner of every pentagon, max over corners."""
    x, y = geometry._top_corners(r1, r2, s)
    return (x[:, None] * dirs[:, 0] + y[:, None] * dirs[:, 1]).max(axis=0)


@pytest.mark.parametrize("n_directions", [181, 721, 4097])
def test_kernel_is_within_8_ulps_of_the_closed_form_and_the_corners(n_directions):
    dirs = quadrant_directions(n_directions)
    for name, r1, r2, s in _kernel_families():
        got = support_max_over_pentagons(r1, r2, s, dirs)
        tol = 8.0 * np.spacing(max(r1.max(), r2.max(), s.max()))
        assert np.abs(got - _broadcast_support(r1, r2, s, dirs)).max() <= tol, name
        assert np.abs(got - _corner_support(r1, r2, s, dirs)).max() <= tol, name


@pytest.mark.parametrize("n_directions", [181, 721])
def test_sliced_hull_matches_the_one_slab_hull_bit_for_bit(n_directions):
    # each later slab is screened by the first slab's chain, so ties,
    # repeats and corners a few ulps apart must reach the kernel across slabs
    rng = np.random.default_rng(43)
    for name, r1, r2, s in _kernel_families():
        ref = hull_of_slabs((r1, r2, s), n_directions).support
        for order in (np.arange(r1.size), rng.permutation(r1.size)):
            cuts = np.sort(rng.integers(0, r1.size + 1, rng.integers(1, 9)))
            slabs = list(zip(*(np.split(v[order], cuts) for v in (r1, r2, s))))
            # the seed is the first slab that is not of size 0
            first = next(i for i, slab in enumerate(slabs) if slab[0].size)
            got = _sliced(slabs[first:], n_directions).support
            assert np.array_equal(got, ref), name


def test_axis_supports_are_the_largest_corner_coordinates():
    dirs = quadrant_directions(181)
    for name, r1, r2, s in _kernel_families():
        got = support_max_over_pentagons(r1, r2, s, dirs)
        assert got[0] == np.minimum(r1, s).max(), name
        assert got[-1] == np.minimum(r2, s).max(), name
    # box corners whose two chain edges are so flat that both normals
    # round to 90 degrees: the r2 axis still gets the highest corner
    top = 1.0 + 2.0 * np.spacing(1.0)
    r1, r2 = np.array([10.0, 6.0, 0.0]), np.array([1.0, 1.0 + np.spacing(1.0), top])
    assert geometry._corner_chain(r1, r2)[0].size == 3
    got = support_max_over_pentagons(r1, r2, np.full(3, 20.0), dirs)
    assert got[0] == 10.0 and got[-1] == top


def test_one_vertex_chain_is_the_maximum_in_every_direction():
    # one box, and boxes and a sum face whose corners (1, 1) beats or meets
    dirs = quadrant_directions(181)
    got = support_max_over_pentagons(np.array([1.25]), np.array([0.5]), np.array([2.0]), dirs)
    assert np.array_equal(got, dirs[:, 0] * 1.25 + dirs[:, 1] * 0.5)
    r1, r2, s = np.array([(1.0, 1.0, 2.5), (0.5, 1.0, 2.5), (1.0, 0.75, 2.5),
                          (1.0, 1.0, 9.0), (0.25, 3.0, 1.0)]).T
    assert geometry._corner_chain(*geometry._top_corners(r1, r2, s))[0].size == 1
    got = support_max_over_pentagons(r1, r2, s, dirs)
    assert np.array_equal(got, dirs[:, 0] * 1.0 + dirs[:, 1] * 1.0)
    assert np.array_equal(got, _corner_support(r1, r2, s, dirs))


def test_edge_across_a_direction_gives_its_better_end():
    # two box corners on a line orthogonal to a sampled direction: the
    # rounded edge normal and direction angle pick either end, so the
    # kernel must weigh both; about 1 in 10 of these picks the lower one
    dirs = quadrant_directions(181)
    rng = np.random.default_rng(5)
    for i in rng.integers(1, 180, 300):
        x1, y1, length = rng.uniform(1.0, 3.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 0.9)
        r1 = np.array([x1, x1 - length * dirs[i, 1]])
        r2 = np.array([y1, y1 + length * dirs[i, 0]])
        s = np.full(2, 10.0)
        got = support_max_over_pentagons(r1, r2, s, dirs)
        assert np.array_equal(got, _corner_support(r1, r2, s, dirs)), (r1, r2)


def _searched_support(r1, r2, s, dirs):
    """The kernel's search alone, without widening raised runs: the reference."""
    cx, cy = geometry._corner_chain(*geometry._top_corners(r1, r2, s))
    t = geometry._quadrant_table(len(dirs))
    normals = np.maximum.accumulate(np.arctan2(cx[:-1] - cx[1:], cy[1:] - cy[:-1]))
    k = np.searchsorted(normals, t.angles)
    k[t.r2_axis] = cx.size - 1
    near = np.clip(k + geometry._NEIGHBOURS, 0, cx.size - 1)
    return np.max(t.dx * cx[near] + t.dy * cy[near], axis=0)


def _raised_normals(r1, r2, s):
    """True when the accumulate raises some edge normal of the corner chain."""
    cx, cy = geometry._corner_chain(*geometry._top_corners(r1, r2, s))
    raw = np.arctan2(cx[:-1] - cx[1:], cy[1:] - cy[:-1])
    return bool(np.any(np.maximum.accumulate(raw) > raw))


#: Four vertices of the corner chain of `region --p1 1e6 --p2 1 --b 0.5
#: --select g --points 11 --directions 181`: the middle two lie a few ulps
#: apart and pass the float turn test, so the edge normals run 50.54 then
#: 36.87 degrees and the accumulate flattens the second; searched alone, 181
#: directions come out up to 0.138 bits short of the maximum.
_ULPS_APART_CHAIN = np.array([
    (6.711688879250742, 3.2566169449612565),
    (1.057733984711114, 7.9100662184929496),
    (1.0577339847111134, 7.91006621849295),
    (0.0, 8.968669667072538),
])


def test_raised_normals_widen_to_the_maximum_over_the_corners():
    dirs = quadrant_directions(181)
    r1, r2 = _ULPS_APART_CHAIN.T
    s = r1 + r2 + 1.0
    assert geometry._corner_chain(r1, r2)[0].size == 4
    want = _corner_support(r1, r2, s, dirs)
    assert (want - _searched_support(r1, r2, s, dirs)).max() > 0.1
    got = support_max_over_pentagons(r1, r2, s, dirs)
    assert np.abs(got - want).max() <= 4.0 * np.spacing(want.max())


def test_monotone_chains_keep_the_searched_supports():
    # a sum bound above x + y makes both top corners (x, y)
    families = _kernel_families() + [(name, x, y, x + y + 1.0) for name, x, y in _chain_inputs()]
    monotone = 0
    for n_directions in (181, 721):
        dirs = quadrant_directions(n_directions)
        for name, r1, r2, s in families:
            got = support_max_over_pentagons(r1, r2, s, dirs)
            ref = _searched_support(r1, r2, s, dirs)
            if _raised_normals(r1, r2, s):
                assert np.all(got >= ref), name
                tol = 8.0 * np.spacing(max(r1.max(), r2.max(), s.max()))
                assert np.abs(got - _corner_support(r1, r2, s, dirs)).max() <= tol, name
            else:
                monotone += 1
                assert np.array_equal(got, ref), name
    assert monotone > 0


def _loop_chain(x, y):
    """The monotone-chain loop over the whole staircase, the reference."""
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


def _chain_inputs():
    """(name, x, y) point sets: kernel families' and one-parameter families'
    top corners, and sets within roundoff of a line or of a few points."""
    sets = [(name, *geometry._top_corners(r1, r2, s))
            for name, r1, r2, s in _kernel_families()]
    grid = np.linspace(0.0, 1.0, 201)
    for p2, b in ((6.0, 1.3628), (6.0, 3.3628), (0.0, 2.0)):
        ch = ChannelParams(6.0, p2, b)
        for arrays in (_co1_arrays, _capacity_arrays, _g2_arrays, _g3p_arrays):
            sets.append((f"{arrays.__name__}-p2{p2:g}-b{b:g}",
                         *geometry._top_corners(*arrays(ch, grid))))
    # the third largest x fails the turn test between its staircase
    # neighbours, yet the loop keeps it: it pops the neighbour before it
    # first, and turns left past the largest x
    sets.append(("near-line", np.array([0.5227754526359932, 0.8709792169900249,
                                        0.28875169951524, 0.9319218127908346]),
                 np.array([0.2007309459832513, 0.03416152072413027,
                           0.3126803447113842, 0.0050085528486344495])))
    rng = np.random.default_rng(47)
    for i in range(30):
        k = int(rng.integers(3, 300))
        t = rng.uniform(0.0, 1.0, k)
        x = t * rng.uniform(0.5, 2.0) * (1.0 + rng.normal(0.0, 1e-15, k))
        y = (1.0 - t) * rng.uniform(0.1, 10.0) * (1.0 + rng.normal(0.0, 1e-15, k))
        sets.append((f"near-line{i}", x, y))
        t = np.sort(rng.uniform(0.0, np.pi / 2.0, max(k // 6, 1)))
        pick = rng.integers(0, t.size, k)
        x, y = 2.0 * np.cos(t)[pick], 2.0 * np.sin(t)[pick]
        x = x + rng.integers(-4, 5, k) * np.spacing(x)
        y = y + rng.integers(-4, 5, k) * np.spacing(y)
        sets.append((f"near-points{i}", x, y))
    return sets


def test_corner_chain_matches_the_loop_over_the_whole_staircase():
    # co1 and capacity at P2 = 6 are convex staircases; most others are not
    for name, x, y in _chain_inputs():
        got, ref = geometry._corner_chain(x, y), _loop_chain(x, y)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1]), name


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
        with pytest.raises(ValueError, match="2 are NaN or infinite in the seed"):
            hull_of_slabs(([1.0, np.nan, 1.0], [1.0, 1.0, 1.0], [1.5, 1.5, np.inf]))

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
    """hull_of_slabs over slabs, and the bounds its screen passes to the kernel."""
    seen = []

    def recorded(r1, r2, s, dirs):
        seen.append((r1.tolist(), r2.tolist(), s.tolist()))
        return support_max_over_pentagons(r1, r2, s, dirs)

    monkeypatch.setattr(geometry, "support_max_over_pentagons", recorded)
    reg = _sliced(slabs, n_directions)
    (bounds,) = seen
    return reg, bounds


class TestSlabPrune:
    def test_empty_pentagon_does_not_prune_a_real_one(self, monkeypatch):
        # r1 < 0 makes it empty, though its other bounds dwarf the real one
        for slabs in ([([-1e-3, 1.0], [100.0, 1.0], [100.0, 1.5])],
                      [([1.0], [1.0], [1.5]), ([-1e-3], [100.0], [100.0])]):
            reg, bounds = _kernel_input(monkeypatch, slabs)
            assert bounds == ([1.0], [1.0], [1.5])
            assert np.array_equal(reg.support, _hull(Pentagon(1.0, 1.0, 1.5), n=181).support)

    def test_non_finite_bounds_are_refused_at_the_first_slab_that_holds_one(self):
        # each count is that slab's; the slabs after it are not taken, and
        # the rows generator is closed
        finite = ([1.0], [1.0], [1.5])
        taken, closed = [], []

        def rows(screen):
            try:
                for slab in (finite, ([1.0, np.nan], [np.inf, 1.0], [1.5, 1.5]),
                             ([np.nan], [np.nan], [np.nan])):
                    taken.append(slab)
                    yield slab
            finally:
                closed.append(True)

        with pytest.raises(ValueError, match="1 are NaN or infinite in the seed"):
            _sliced([([1.0, np.nan], [1.0, 1.0], [1.5, 1.5]), ([1.0], [np.inf], [np.nan])])
        with pytest.raises(ValueError, match="2 are NaN or infinite in slab 2 after the seed"):
            try:
                hull_of_slabs(finite, rows=rows)
            finally:
                # closed as the error leaves, while its traceback still
                # holds the generator
                assert len(taken) == 2 and closed == [True]

    def test_all_slabs_empty_rejected(self):
        with pytest.raises(ValueError, match="all pentagons are empty"):
            hull_of_slabs(([-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]))
        # with rows, an empty seed is refused, however many rows would follow
        taken = []
        with pytest.raises(ValueError, match="all pentagons of the seed are empty"):
            _sliced([([-1.0], [1.0], [1.0]), ([1.0], [1.0], [1.5])], taken=taken)
        assert taken == []

    @pytest.mark.parametrize("cuts", [[0, 7, 1000, 1001, 2500, 3000],
                                      [0, 1, 2, 3, 3000],
                                      list(range(0, 3001, 100))])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_screened_slabs_give_the_one_slab_hull(self, monkeypatch, cuts, reverse):
        rng = np.random.default_rng(5)
        r1, r2 = rng.uniform(0.0, 2.0, (2, 3000))
        s = rng.uniform(0.5, 1.0, 3000) * (r1 + r2)
        whole, whole_bounds = _kernel_input(monkeypatch, [(r1, r2, s)])
        slabs = [(r1[a:b], r2[a:b], s[a:b]) for a, b in zip(cuts, cuts[1:])]
        if reverse:
            slabs = slabs[::-1]
        pieces, piece_bounds = _kernel_input(monkeypatch, slabs)
        assert len(piece_bounds[0]) < len(whole_bounds[0]) == 3000
        assert np.array_equal(pieces.support, whole.support)
        assert np.array_equal(pieces.boundary, whole.boundary)

    def test_slab_corner_below_the_first_slabs_chain_is_dropped(self, monkeypatch):
        # box pentagons (r1 + r2 <= s): the first slab's chain is x + y = 2,
        # and neither of its end vertices dominates the corner (1 - t, 1 - t)
        first = ([2.0, 0.0], [0.0, 2.0], [10.0, 10.0])
        for t, kept in ((1e-3, False), (2e-9, False), (5e-10, True), (0.0, True)):
            slab = ([1.0 - t], [1.0 - t], [10.0])
            _, bounds = _kernel_input(monkeypatch, [first, slab])
            assert bounds[0] == first[0] + ([1.0 - t] if kept else []), t
            # one slab goes to the kernel whole
            _, bounds = _kernel_input(
                monkeypatch, [[a + b for a, b in zip(first, slab)]])
            assert bounds[0] == first[0] + [1.0 - t], t

    def test_box_corner_within_tolerance_keeps_its_pentagon(self, monkeypatch):
        # the first slab's chain is x + y = 2; the box pentagons' corners lie
        # 2**-30 (under _BOUNDARY_TOL) and 2**-29 (over it) below it along
        # (1, 1), exactly in floats; the cut pentagon's box corner (1.5,
        # 1.5) is far above it and its top corner (1.5, 0.5) on it
        first = ([2.0, 0.0], [0.0, 2.0], [10.0, 10.0])
        near, far = 1.0 - 2.0**-30, 1.0 - 2.0**-29
        slab = ([near, far, 1.5], [near, far, 1.5], [10.0, 10.0, 2.0])
        _, bounds = _kernel_input(monkeypatch, [first, slab])
        assert bounds[0] == first[0] + [near, 1.5]

    def test_pentagon_with_both_top_corners_below_is_dropped_above_its_box_corner(
            self, monkeypatch):
        # the first slab's chain is x + y = 2; the slab pentagon's box corner
        # (1.5, 1.5) passes the box screen, but its top corners (1.5, 0.3)
        # and (0.3, 1.5) lie 0.1 below the chain along (1, 1)
        first = ([2.0, 0.0], [0.0, 2.0], [10.0, 10.0])
        _, bounds = _kernel_input(monkeypatch, [first, ([1.5], [1.5], [1.8])])
        assert bounds[0] == first[0]

    def test_first_slab_reaches_the_kernel_whole(self, monkeypatch):
        # the first slab's (1, 1) box lies below its chain x + y = 3 and its
        # (3, 0) box is there twice; whatever follows, none of it is dropped
        first = ([3.0, 0.0, 1.0, 3.0], [0.0, 3.0, 1.0, 0.0], [10.0] * 4)
        for rest, extra in (([], []),
                            ([([], [], [])], []),
                            ([([0.5], [0.5], [1.0])], []),
                            ([([-1.0], [0.5], [1.0]), ([4.0, 1.0], [0.0, 1.0], [10.0, 10.0])],
                             [4.0])):
            _, bounds = _kernel_input(monkeypatch, [first, *rest])
            assert bounds[0] == first[0] + extra, rest

    def test_slab_pentagon_needs_both_corners_below_the_chain_to_go(self, monkeypatch):
        # first slab's chain (2, 0), (1.2, 1.2), (0, 2); the first slab
        # pentagon has corners (1.8, 0.55) above it and (1.15, 1.2) 0.02
        # below, the second a box corner at (1.15, 1.2) that neither end
        # vertex dominates
        first = ([2.0, 0.0, 1.2], [0.0, 2.0, 1.2], [10.0, 10.0, 10.0])
        slab = ([1.8, 1.15], [1.2, 1.2], [2.35, 10.0])
        _, bounds = _kernel_input(monkeypatch, [first, slab])
        assert bounds[0] == [2.0, 0.0, 1.2, 1.8]

    def test_screen_drops_what_an_end_vertex_dominates(self):
        # chain (2, 0.5), (1.2, 1.2), (0.5, 2); its edge from (2, 0.5) to
        # (1.2, 1.2) passes through (1.6, 0.85)
        cx, cy = np.array([2.0, 1.2, 0.5]), np.array([0.5, 1.2, 2.0])
        cases = {
            (2.0, 0.3): False, (0.3, 2.0): False,          # on a foot
            (2.0, 0.5): False, (0.5, 2.0): False,          # an end vertex
            (2.0 - 1e-10, 0.5): False,                     # in range, dominated
            (2.0 + 1e-12, 0.3): True, (0.3, 2.0 + 1e-12): True,  # beyond an end
            (3.0, 0.0): True, (0.0, 3.0): True,
            (1.6 - 5e-10, 0.85 - 5e-10): True,             # within tolerance
            (1.6 - 1e-8, 0.85 - 1e-8): False,              # beyond it
            (1.2, 1.2): True, (1.7, 1.7): True,            # on and above the chain
        }
        x, y = np.array(list(cases)).T
        assert geometry._near_chain(cx, cy, x, y).tolist() == list(cases.values())

    def test_size_zero_slabs_contribute_nothing(self, monkeypatch):
        slab = ([1.0, 0.5], [0.5, 1.0], [1.2, 1.2])
        zero = ([], [], [])
        one, one_bounds = _kernel_input(monkeypatch, [slab])
        mixed, mixed_bounds = _kernel_input(monkeypatch, [slab, zero, zero])
        assert mixed_bounds == one_bounds
        assert np.array_equal(mixed.support, one.support)
        with pytest.raises(ValueError, match="all pentagons are empty"):
            hull_of_slabs(zero)
        with pytest.raises(ValueError, match="all pentagons of the seed are empty"):
            _sliced([zero, slab])

    def test_rows_is_called_once_with_the_screen_after_the_seed_chain(self, monkeypatch):
        rng = np.random.default_rng(9)
        r1, r2 = rng.uniform(0.0, 2.0, (2, 300))
        s = rng.uniform(0.5, 1.0, 300) * (r1 + r2)
        slabs = [(r1[a:a + 50], r2[a:a + 50], s[a:a + 50]) for a in range(0, 300, 50)]
        chains, calls, taken = [], [], []
        chain = geometry._corner_chain

        def counted(x, y):
            chains.append(x.size)
            return chain(x, y)

        def rows(screen):
            # the seed's chain comes first: its 50 pentagons' 100 corners
            calls.append((screen, list(chains)))
            for slab in slabs[1:]:
                taken.append(len(slab[0]))
                yield slab

        monkeypatch.setattr(geometry, "_corner_chain", counted)
        reg = hull_of_slabs(slabs[0], 181, rows=rows)
        ((screen, before),) = calls
        assert callable(screen) and before == [100]
        assert taken == [50] * 5
        monkeypatch.undo()
        assert np.array_equal(reg.support, hull_of_slabs((r1, r2, s), 181).support)


class TestBlockScreen:
    def test_a_block_goes_when_both_corners_lie_deep_below_the_chain(self):
        # chain x + y = 2; the margin is _BLOCK_MARGIN of its largest
        # coordinate, 2; box bounds have one top corner, the others two
        cx, cy = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        tol, margin = geometry._BOUNDARY_TOL, 2.0 * geometry._BLOCK_MARGIN
        cases = {
            (0.5, 0.5, 10.0): False,              # 1 below along (1, 1)
            (1.5, 1.5, 1.8): False,               # both corners 0.1 below
            (1.8, 1.2, 2.35): True,               # (1.8, 0.55) above the chain
            (1.15, 1.2, 10.0): True,              # 0.175 above it
            (1.0, 1.0, 10.0): True,               # on it
            (1.0 - tol / 2, 1.0 - tol / 2, 10.0): True,    # within tolerance
            # past the tolerance but within the margin, and past both
            (1.0 - tol - margin / 2, 1.0 - tol - margin / 2, 10.0): True,
            (1.0 - tol - 2 * margin, 1.0 - tol - 2 * margin, 10.0): False,
        }
        r1, r2, s = np.array(list(cases)).T
        got = geometry._blocks_reaching(cx, cy, r1, r2, s)
        assert got.tolist() == list(cases.values())

    def test_only_deep_blocks_inside_the_chains_range_go(self):
        # chain (2, 0.5), (1.2, 1.2), (0.5, 2): a corner under an end vertex
        # but outside the (y - x) range is not deep, so its block is kept
        # (_near_chain still drops such a pentagon once it is evaluated)
        cx, cy = np.array([2.0, 1.2, 0.5]), np.array([0.5, 1.2, 2.0])
        r1, r2, s = np.array([[1.9, 0.1, 10.0], [0.1, 1.9, 10.0], [1.0, 1.0, 10.0]]).T
        assert geometry._blocks_reaching(cx, cy, r1, r2, s).tolist() == [True, True, False]

    def test_blocks_with_bounds_that_are_not_finite_are_kept(self):
        cx, cy = np.array([2.0, 0.0]), np.array([0.0, 2.0])
        r1 = np.array([0.5, np.inf, 0.5, 0.5, np.nan, 0.5])
        r2 = np.array([0.5, 0.5, np.inf, 0.5, 0.5, 0.5])
        s = np.array([10.0, 10.0, 10.0, np.nan, 10.0, 10.0])
        assert geometry._blocks_reaching(cx, cy, r1, r2, s).tolist() == [
            False, True, True, True, True, False]

    @pytest.mark.parametrize("scale, seed", [(1e-6, 1), (1.0, 2), (3e2, 3)])
    def test_no_member_of_a_dropped_block_reaches_the_kernel(self, scale, seed):
        # members whose bounds reach the block's times 1 + _BLOCK_MARGIN / 4
        # all fail _near_chain when their block goes
        rng = np.random.default_rng(seed)
        slack = 1.0 + geometry._BLOCK_MARGIN / 4
        dropped = 0
        for _ in range(40):
            t = np.sort(rng.uniform(0.0, np.pi / 2.0, int(rng.integers(2, 12))))
            cx, cy = geometry._corner_chain(scale * np.cos(t), scale * np.sin(t))
            r1, r2 = scale * rng.uniform(0.0, 1.1, (2, 300))
            s = rng.uniform(0.5, 1.2, 300) * (r1 + r2)
            # bounds just under the chain as well
            s[:100] = np.maximum(r1, r2)[:100] * (1.0 + rng.uniform(0.0, 0.4, 100))
            keep = geometry._blocks_reaching(cx, cy, r1, r2, s)
            dropped += int(np.count_nonzero(~keep))
            for u in (np.ones(3), np.full(3, slack), rng.uniform(0.9, slack, 3)):
                m1, m2, ms = (v[~keep] * f for v, f in zip((r1, r2, s), u))
                near = geometry._near_chain(cx, cy, *geometry._top_corners(m1, m2, ms))
                assert not near.any()
        assert dropped > 1000

    def test_rows_gets_the_block_screen_on_the_seeds_chain(self):
        # the seed's chain is x + y = 2 with an empty pentagon beside it
        taken = []
        seed = ([2.0, 0.0, -1.0], [0.0, 2.0, 5.0], [10.0, 10.0, 10.0])
        _sliced([seed, ([0.5], [0.5], [10.0])], taken=taken)
        (screen,) = taken
        keep = screen(np.array([0.5, 1.5]), np.array([0.5, 1.5]), np.array([10.0, 10.0]))
        assert keep.tolist() == [False, True]

    def test_rows_is_never_called_when_the_seed_is_refused(self):
        taken = []
        for seed, match in ((([np.inf], [1.0], [1.5]), "1 are NaN or infinite in the seed"),
                            (([-1.0], [1.0], [1.0]), "all pentagons of the seed are empty"),
                            (([], [], []), "all pentagons of the seed are empty")):
            with pytest.raises(ValueError, match=match):
                _sliced([seed, ([1.0], [1.0], [1.5])], taken=taken)
        assert taken == []


def _stack_envelope(dirs, support):
    """Vertices of {x >= 0, y >= 0, d_i.x <= h_i}, from the r1 axis to the r2
    axis, one line at a time: the reference for the hull envelope and the
    merge in intersect.

    Sorted-angle halfplane intersection (Preparata and Shamos, Computational
    Geometry, 1985): the lines y = 0, then d_i.x = h_i by increasing angle,
    then x = 0 are pushed on a stack; a line first pops every line whose
    vertex with its predecessor it cuts off.  Exact for any h_i >= 0, tight
    or not.  Returns an (m, 2) polyline deduplicated at _BOUNDARY_TOL.
    """
    lines = np.vstack([(0.0, -1.0, 0.0), np.column_stack([dirs, support]),
                       (-1.0, 0.0, 0.0)]).tolist()
    stack, verts = [lines[0]], []
    for a, b, h in lines[1:]:
        # d.x grows along the chain built so far (every stacked angle is
        # smaller), so the lines to drop are all on top of the stack
        while verts and a * verts[-1][0] + b * verts[-1][1] > h:
            stack.pop()
            verts.pop()
        a0, b0, h0 = stack[-1]
        det = a0 * b - b0 * a
        verts.append(((h0 * b - h * b0) / det, (a0 * h - a * h0) / det))
        stack.append((a, b, h))
    x, y = np.maximum(verts, 0.0).T
    return geometry._dedupe(x, y)


class TestHalfplaneEnvelope:
    def _loose_45_degree_sample(self):
        dirs = quadrant_directions(5)
        h = np.array([pentagon_support(Pentagon(1, 1, 1.5), d) for d in dirs])
        h[2] = 5.0  # the 45-degree sample is redundant
        return dirs, h

    def test_vertex_between_tight_halfplanes_around_a_loose_one(self):
        dirs, h = self._loose_45_degree_sample()
        boundary = _stack_envelope(dirs, h)
        # the 22.5- and 67.5-degree lines meet on the diagonal
        v = h[1] / (dirs[1, 0] + dirs[1, 1])
        assert v == pytest.approx(0.853553, abs=1e-6)
        expect = [(1, 0), (1, 0.5), (v, v), (0.5, 1), (0, 1)]
        assert np.abs(boundary - np.array(expect)).max() <= 1e-12

    def test_hull_boundary_refuses_a_loose_halfplane(self):
        dirs, h = self._loose_45_degree_sample()
        with pytest.raises(ValueError, match="loose at 1 sampled directions"):
            ConvexRegion.from_support(dirs, h)

    def test_hulls_never_take_the_merge_path(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("boundary merge used")

        monkeypatch.setattr(geometry, "_merged_envelope", refuse)
        a = _hull(Pentagon(1, 0.2, 1.2), Pentagon(0.7, 0.7, 1.0), n=181)
        b = _hull(Pentagon(0.2, 1, 1.2), n=181)
        with pytest.raises(AssertionError, match="merge"):
            intersect(a, b)

    @pytest.mark.parametrize("b", [1.0, 1.3628, 3.3628])
    def test_hull_boundary_matches_the_stack_on_the_paper_families(self, b):
        ch = ChannelParams(6.0, 6.0, b)
        for reg in (g2_region(ch), g3p_region(ch), capacity_region(ch), co1_region(ch)):
            stack = _stack_envelope(reg.directions, reg.support)
            assert reg.boundary.shape == stack.shape, reg.provenance
            assert np.abs(reg.boundary - stack).max() <= 1e-12, reg.provenance

    def test_hull_boundary_matches_the_stack_on_the_fig3_g_family(self):
        for b in (1.3628, 3.3628):
            reg = g_region(ChannelParams(6.0, 6.0, b), 101, 101, 101)
            stack = _stack_envelope(reg.directions, reg.support)
            assert reg.boundary.shape == stack.shape
            assert np.abs(reg.boundary - stack).max() <= 1e-12

    def test_boundary_ends_exactly_on_the_axes(self):
        # g3p at b = 1.3628 tops out on the r2 axis, where the lines of the
        # last two samples meet a roundoff width away from it
        reg = g3p_region(ChannelParams(6.0, 6.0, 1.3628))
        stack = _stack_envelope(reg.directions, reg.support)
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


#: co2 channels (P1, P2, b) of the merge's property test.  The first six
#: are the CI determinism step's: the outer-bound and fig5 presets, co1
#: inside bcdms at the default (6, 6, 1), bcdms inside co1 at (6, 1, 2)
#: (and at P2 = 0), co1 inside bcdms touching it at one vertex, (0, 0.5368)
#: on the r2 axis, at (6, 0.1, 0.3), and the widest scale.  Then the fig3
#: gain 1.3628, parents that coincide to roundoff at P1 = 0 and at P2 = 0,
#: b = 1, and flat ones at b = 0.
CO2_CHANNELS = [(6.0, 6.0, 3.3628), (6.0, 0.0, 2.0), (6.0, 6.0, 1.0), (6.0, 1.0, 2.0),
                (6.0, 0.1, 0.3), (1e150, 1e150, 1.0), (6.0, 6.0, 1.3628), (0.0, 5.0, 1.5),
                (6.0, 0.0, 1.0), (6.0, 6.0, 0.0)]


def _random_hull(rng, n, scale):
    k = int(rng.integers(1, 5))
    r1, r2 = scale * rng.uniform(0.0, 1.0, k), scale * rng.uniform(0.0, 1.0, k)
    s = np.maximum(r1, r2) + rng.uniform(0.0, 1.0, k) * np.minimum(r1, r2)
    return hull_of_slabs((r1, r2, s), n)


def _merge_pairs():
    """(name, a, b) region pairs for the merge's property test."""
    rng = np.random.default_rng(24)
    pairs = []
    for i in range(200):
        # 250 bits is the scale of the rates at P1 = P2 = 1e150
        n, scale = (181, 721)[i % 2], (1.0, 1e-3, 20.0, 250.0)[i % 4]
        pairs.append((f"random{i}", _random_hull(rng, n, scale), _random_hull(rng, n, scale)))
    for n in (181, 721):
        box = _hull(Pentagon(1, 1, 1.5), n=n)
        pairs += [
            # each has a vertex at (0.8, 0.6) on the other's boundary
            (f"touch{n}", _hull(Pentagon(0.8, 1.0, 1.4), n=n), _hull(Pentagon(1.0, 0.6, 1.4), n=n)),
            (f"inside{n}", box, _hull(Pentagon(2, 2, 3), n=n)),
            # box's corners lie on the triangle's edge
            (f"inside-touching{n}", _hull(Pentagon(1.5, 1.5, 1.5), n=n), box),
            (f"identical{n}", box, box),
            (f"random-identical{n}", *[_random_hull(np.random.default_rng(n), n, 1.0)] * 2),
        ]
        # the CLI's default grids at 721 directions, coarser ones at 181
        grids = (201, 41) if n == 721 else (51, 11)
        for p1, p2, b in CO2_CHANNELS:
            ch = ChannelParams(p1, p2, b)
            pairs.append((f"co2{(p1, p2, b)}-{n}", co1_region(ch, grids[0], n),
                          bcdms_region(ch, grids[1], n)))
    return pairs


class TestIntersectMerge:
    def test_matches_the_stack_and_stays_inside_both_parents(self):
        for name, a, b in _merge_pairs():
            got = intersect(a, b)
            d = got.directions
            h = np.minimum(a.support, b.support)
            ref = np.max(_stack_envelope(d, h) @ d.T, axis=0)
            assert np.all(np.abs(got.support - ref) <= 1e-12 * np.maximum(1.0, ref)), name
            assert np.all(got.boundary @ d.T <= h + geometry._BOUNDARY_TOL), name
            assert got.boundary[0].tolist() == [min(a.support[0], b.support[0]), 0.0], name
            assert got.boundary[-1].tolist() == [0.0, min(a.support[-1], b.support[-1])], name
            # an intersection is a parent of the next one, and lies in a
            again = intersect(got, a)
            assert np.all(np.abs(again.support - got.support)
                          <= 1e-12 * np.maximum(1.0, got.support)), name

    def test_identical_parents_give_the_parent(self):
        for n in (181, 721):
            a = _random_hull(np.random.default_rng(n), n, 1.0)
            got = intersect(a, a)
            assert np.array_equal(got.boundary, a.boundary)
            # read back off the same vertices, within roundoff of the kernel's
            assert np.abs(got.support - a.support).max() <= 1e-12

    def test_touching_parents_meet_at_their_shared_vertex(self):
        a = _hull(Pentagon(0.8, 1.0, 1.4), n=181)
        b = _hull(Pentagon(1.0, 0.6, 1.4), n=181)
        got = intersect(a, b)
        assert np.abs(got.boundary - [[0.8, 0.0], [0.8, 0.6], [0.0, 0.6]]).max() <= 1e-12


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_refuses_a_tolerance_that_is_not_finite_and_nonnegative(self, tol):
        # a NaN tolerance read "not contained", a negative one was taken
        reg = _hull(Pentagon(1, 1, 1.5))
        with pytest.raises(ValueError, match="tol must be"):
            reg.contains(RatePair(0.7, 0.7), tol=tol)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_refuses_a_tolerance_that_is_not_finite_and_nonnegative(self, tol):
        # a NaN tolerance read is_subset=False
        reg = _hull(Pentagon(1, 1, 1.5))
        with pytest.raises(ValueError, match="tol must be"):
            subset_within(reg, reg, tol)


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
