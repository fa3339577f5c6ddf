"""Outer bounds: the correlation-parameterized bound, the broadcast
degraded-message-set region, and their intersection."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cograte.model import ChannelParams, RatePair
from cograte import bounds
from cograte.bounds import bcdms_region, co1_pentagon, co1_region, co2_region
from cograte.geometry import directed_gap, hull_of_slabs, subset_within


def hl2(x):
    return 0.5 * math.log2(x)


def vertex_enumeration_support(dirs, h):
    """Support of {x >= 0, y >= 0, d_i.x <= h_i} by brute force: the max over
    every feasible intersection point of two of its boundary lines."""
    a = np.vstack([dirs, [[0.0, -1.0], [-1.0, 0.0]]])
    c = np.concatenate([h, [0.0, 0.0]])
    i, j = np.triu_indices(len(c), 1)
    det = a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]
    i, j, det = i[det != 0.0], j[det != 0.0], det[det != 0.0]
    pts = np.column_stack([
        (c[i] * a[j, 1] - c[j] * a[i, 1]) / det,
        (a[i, 0] * c[j] - a[j, 0] * c[i]) / det,
    ])
    feasible = np.all(pts @ a.T <= c + 1e-12, axis=1)
    return np.max(pts[feasible] @ dirs.T, axis=0)


CH = ChannelParams(6.0, 6.0, 1.3628)
CH_SCALAR = ChannelParams(6.0, 0.0, 2.0)  # antenna 2 silent


class TestCo1Pentagon:
    def test_rho_zero(self):
        p = co1_pentagon(ChannelParams(6, 6, 2), rho=0.0)
        assert p.r1_max == pytest.approx(hl2(7), abs=1e-12)
        assert p.sum_max == pytest.approx(hl2(31), abs=1e-12)
        assert p.r2_max == p.sum_max

    def test_rho_one(self):
        ch = ChannelParams(6, 6, 2)
        p = co1_pentagon(ch, rho=1.0)
        assert p.r1_max == 0.0
        expect = hl2((2 * math.sqrt(6) + math.sqrt(6)) ** 2 + 1)
        assert p.sum_max == pytest.approx(expect, abs=1e-12)

    def test_p2_zero_sum_is_rho_free(self):
        for rho in (0.0, 0.3, 1.0):
            p = co1_pentagon(CH_SCALAR, rho=rho)
            assert p.sum_max == pytest.approx(hl2(25), abs=1e-12)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            co1_pentagon(CH, rho=-0.1)
        with pytest.raises(ValueError):
            co1_pentagon(CH, rho=1.5)

    def test_monotone_in_rho(self):
        rhos = np.linspace(0.0, 1.0, 101)
        pens = [co1_pentagon(CH, r) for r in rhos]
        r1 = np.array([p.r1_max for p in pens])
        s = np.array([p.sum_max for p in pens])
        assert np.all(np.diff(r1) <= 0)
        assert np.all(np.diff(s) >= 0)


class TestCo1Region:
    def test_axis_supports(self):
        reg = co1_region(CH, n_rho=201, n_directions=181)
        assert reg.support[0] == pytest.approx(hl2(7), abs=1e-9)
        expect = hl2((CH.b * math.sqrt(6) + math.sqrt(6)) ** 2 + 1)
        assert reg.support[-1] == pytest.approx(expect, abs=1e-9)

    def test_p1_zero_is_a_segment(self):
        reg = co1_region(ChannelParams(0, 6, 2), n_rho=51, n_directions=181)
        assert np.abs(reg.boundary[:, 0]).max() <= 1e-9
        assert reg.boundary[:, 1].max() == pytest.approx(hl2(7), abs=1e-9)


class TestBcdmsRegion:
    def test_scalar_channel_corners(self):
        reg = bcdms_region(CH_SCALAR, n_grid=41, n_directions=181)
        assert reg.support[0] == pytest.approx(hl2(7), abs=1e-9)
        assert reg.support[-1] == pytest.approx(hl2(25), abs=1e-9)
        # splitting all power to the private layer silences receiver 2
        assert not reg.contains(RatePair(hl2(7), 0.3), tol=1e-6)

    def test_p1_zero_is_a_segment(self):
        reg = bcdms_region(ChannelParams(0, 6, 2), n_grid=21, n_directions=181)
        assert np.abs(reg.boundary[:, 0]).max() <= 1e-9
        assert reg.boundary[:, 1].max() == pytest.approx(hl2(7), abs=1e-9)

    def test_full_cooperation_sum_ceiling(self):
        for ch in (CH, CH_SCALAR, ChannelParams(3, 5, 1.2)):
            reg = bcdms_region(ch, n_grid=21, n_directions=181)
            diag = 1 / math.sqrt(2)
            ceiling = hl2(
                1 + ch.b**2 * ch.p1 + ch.p2 + 2 * ch.b * math.sqrt(ch.p1 * ch.p2)
            )
            h45 = reg.support[90]  # direction index 90 of 181 is 45 degrees
            assert h45 <= ceiling * diag + 1e-9

    def test_meets_co1_at_the_diagonal(self):
        # both bounds reach the full-cooperation sum capacity
        for ch in (CH, CH_SCALAR):
            bc = bcdms_region(ch, n_grid=41, n_directions=181)
            c1 = co1_region(ch, n_rho=201, n_directions=181)
            assert abs(bc.support[90] - c1.support[90]) <= 1e-9

    def test_zero_log_argument_is_silent(self):
        # at b=1000 a non-PSD private split can put 1 + b^2 a + 2 b c + d at
        # exactly 0; it is masked out, so its log2 must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reg = bcdms_region(ChannelParams(0.001, 0.001, 1000), n_grid=5, n_directions=31)
        assert np.isfinite(reg.support).all()

    def test_infeasible_split_rejected(self):
        # grid {0, 6} per power and {-6, 6} per covariance: a full-magnitude
        # covariance needs both private powers at 6 and c_priv = c_tot, so
        # p1_priv = 0 has no feasible split and yields no pentagon, so the
        # slab holds one pentagon per c_tot
        b = 1.5
        r1, r2, s = bounds._bcdms_slab(ChannelParams(6, 6, b), n_grid=2)
        expect = [hl2(1 + 6 * b * b + 2 * b * ct + 6) for ct in (-6.0, 6.0)]
        assert r1.tolist() == [0.0, 0.0]
        assert r2.tolist() == expect
        assert s.tolist() == expect

    def test_pentagon_formulas_on_scalar_channel(self):
        # P2 = 0 leaves one c_tot and one split per p1_priv, so the slab is
        # the grid
        r1, r2, s = (x.tolist() for x in bounds._bcdms_slab(CH_SCALAR, n_grid=41))
        assert len(r1) == len(r2) == len(s) == 41
        silent, full = (r1[0], r2[0], s[0]), (r1[-1], r2[-1], s[-1])
        assert silent == pytest.approx((hl2(7), 0.0, hl2(25)), abs=1e-12)
        assert full == pytest.approx((0.0, hl2(25), hl2(25)), abs=1e-12)

    def test_default_grid_memory(self):
        # the masked 41^4 grid and its concatenated bounds peaked near 82 MB
        tracemalloc.start()
        try:
            bcdms_region(ChannelParams(6.0, 6.0, 3.3628))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def _every_feasible_split(ch, n_grid):
    """Bounds of every PSD-feasible split of the 4-D (c_tot, p1_priv,
    p2_priv, c_priv) grid, as one slab of flat arrays."""
    p1, p2, b = ch.p1, ch.p2, ch.b
    c_max = math.sqrt(p1 * p2)
    ct, a, d, c = np.meshgrid(
        np.unique(np.linspace(-c_max, c_max, n_grid)),
        np.unique(np.linspace(0.0, p1, n_grid)),
        np.unique(np.linspace(0.0, p2, n_grid)),
        np.unique(np.linspace(-c_max, c_max, n_grid)),
        indexing="ij", sparse=True,
    )
    tol = 1e-12 * p1 * p2
    ok = (c * c <= a * d + tol) & ((ct - c) ** 2 <= (p1 - a) * (p2 - d) + tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        grids = np.broadcast_arrays(
            0.5 * np.log2((p1 + 1.0) / (a + 1.0)),
            0.5 * np.log2(1.0 + b * b * a + 2.0 * b * c + d),
            0.5 * np.log2(1.0 + b * b * p1 + 2.0 * b * ct + p2),
        )
    return [g[ok] for g in grids]


class TestBcdmsMaximalPentagons:
    @pytest.mark.parametrize("n_grid", [5, 11, 41])
    @pytest.mark.parametrize("p1, p2, b", [
        (6, 6, 3.3628), (6, 6, 1.3628), (10, 3, 2), (6, 0, 2), (1e-20, 1e9, 1e6),
    ])
    def test_matches_the_hull_of_every_feasible_split(self, p1, p2, b, n_grid):
        ch = ChannelParams(p1, p2, b)
        reg = bcdms_region(ch, n_grid, 181)
        ref = hull_of_slabs([_every_feasible_split(ch, n_grid)], 181)
        assert np.abs(reg.support - ref.support).max() <= 2e-15
        assert reg.boundary.shape == ref.boundary.shape
        assert np.abs(reg.boundary - ref.boundary).max() <= 1e-12

    @pytest.mark.parametrize("n_grid", [5, 11, 41])
    @pytest.mark.parametrize("b", [1.3628, 3.3628])
    def test_one_slab_matches_a_slab_per_c_tot(self, b, n_grid):
        # the slab is c_tot-major and its sum bound grows with c_tot, so it
        # splits into the pentagons of each c_tot; streamed through the
        # running prune, those give the same floats as the one slab
        ch = ChannelParams(6, 6, b)
        r1, r2, s = bounds._bcdms_slab(ch, n_grid)
        cuts = np.flatnonzero(np.diff(s)) + 1
        per_c_tot = list(zip(*(np.split(v, cuts) for v in (r1, r2, s))))
        assert len(per_c_tot) == n_grid
        reg = bcdms_region(ch, n_grid, 181)
        streamed = hull_of_slabs(per_c_tot, 181)
        assert np.array_equal(reg.support, streamed.support)
        assert np.array_equal(reg.boundary, streamed.boundary)


class TestCo2Region:
    def test_subset_of_both_parents(self):
        ch = CH
        co2 = co2_region(ch, n_rho=101, n_grid=21, n_directions=181)
        c1 = co1_region(ch, n_rho=101, n_directions=181)
        bc = bcdms_region(ch, n_grid=21, n_directions=181)
        for pt in co2.boundary.tolist():
            assert c1.contains(pt, tol=1e-9)
            assert bc.contains(pt, tol=1e-9)

    def test_strictly_smaller_on_scalar_channel(self):
        ch = CH_SCALAR
        co2 = co2_region(ch, n_rho=101, n_grid=41, n_directions=181)
        c1 = co1_region(ch, n_rho=101, n_directions=181)
        assert subset_within(co2, c1, tol=1e-9).is_subset
        assert directed_gap(c1, co2) > 0.05
        # corner witness: the first bound admits this point, the
        # intersection does not
        witness = RatePair(hl2(7), 0.9)
        assert c1.contains(witness, tol=1e-9)
        assert not co2.contains(witness, tol=1e-6)

    @pytest.mark.parametrize("ch", [ChannelParams(6, 6, 3.3628), CH_SCALAR])
    def test_exact_intersection_of_the_sampled_halfplanes(self, ch):
        co2 = co2_region(ch, n_rho=51, n_grid=11, n_directions=181)
        c1 = co1_region(ch, n_rho=51, n_directions=181)
        bc = bcdms_region(ch, n_grid=11, n_directions=181)
        h = np.minimum(c1.support, bc.support)
        expect = vertex_enumeration_support(co2.directions, h)
        assert np.abs(co2.support - expect).max() <= 1e-12
        # the support is the max over the vertices, so they lie in both parents
        assert np.all(co2.support <= h + 1e-12)

    def test_degenerate_channel_parents_coincide(self):
        ch = ChannelParams(0, 5, 1.5)
        co2 = co2_region(ch, n_rho=51, n_grid=11, n_directions=181)
        c1 = co1_region(ch, n_rho=51, n_directions=181)
        assert np.abs(co2.support - c1.support).max() <= 1e-9
