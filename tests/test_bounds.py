"""Outer bounds: the correlation-parameterized bound, the broadcast
degraded-message-set region, and their intersection."""

import math
import warnings

import numpy as np
import pytest

from cograte.model import ChannelParams, RatePair
from cograte.bounds import (
    CovSplit,
    bcdms_pentagon,
    bcdms_region,
    co1_pentagon,
    co1_region,
    co2_region,
)
from cograte.geometry import directed_gap, subset_within


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


class TestCovSplit:
    def test_valid_split(self):
        s = CovSplit(c_tot=3.0, p1_priv=2.0, p2_priv=2.0, c_priv=2.0)
        assert s.feasible(ChannelParams(6, 6, 1.5))

    def test_total_correlation_bounded(self):
        s = CovSplit(c_tot=7.0, p1_priv=0.0, p2_priv=0.0, c_priv=0.0)
        assert not s.feasible(ChannelParams(6, 6, 1.5))

    def test_common_part_must_be_psd(self):
        s = CovSplit(c_tot=-6.0, p1_priv=6.0, p2_priv=6.0, c_priv=6.0)
        assert not s.feasible(ChannelParams(6, 6, 1.5))

    def test_private_psd_enforced_at_construction(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            CovSplit(c_tot=0.0, p1_priv=1.0, p2_priv=1.0, c_priv=1.5)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            CovSplit(c_tot=0.0, p1_priv=-1.0, p2_priv=1.0, c_priv=0.0)


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
        split = CovSplit(c_tot=0.0, p1_priv=7.0, p2_priv=0.0, c_priv=0.0)
        with pytest.raises(ValueError, match="infeasible"):
            bcdms_pentagon(ChannelParams(6, 6, 1.5), split)

    def test_pentagon_formulas_on_scalar_channel(self):
        ch = CH_SCALAR
        silent = CovSplit(c_tot=0.0, p1_priv=0.0, p2_priv=0.0, c_priv=0.0)
        p = bcdms_pentagon(ch, silent)
        assert p.r1_max == pytest.approx(hl2(7), abs=1e-12)
        assert p.r2_max == pytest.approx(0.0, abs=1e-12)
        assert p.sum_max == pytest.approx(hl2(25), abs=1e-12)
        full = CovSplit(c_tot=0.0, p1_priv=6.0, p2_priv=0.0, c_priv=0.0)
        q = bcdms_pentagon(ch, full)
        assert q.r1_max == pytest.approx(0.0, abs=1e-12)
        assert q.r2_max == pytest.approx(hl2(25), abs=1e-12)


class TestCo2Region:
    def test_subset_of_both_parents(self):
        ch = CH
        co2 = co2_region(ch, n_rho=101, n_grid=21, n_directions=181)
        c1 = co1_region(ch, n_rho=101, n_directions=181)
        bc = bcdms_region(ch, n_grid=21, n_directions=181)
        for pt in co2.boundary_points():
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
