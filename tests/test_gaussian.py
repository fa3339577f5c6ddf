"""Closed-form Gaussian rate families, the capacity region, and b_star."""

import math
import tracemalloc

import numpy as np
import pytest

from cograte.model import ChannelParams, Pentagon
from cograte.bounds import co1_pentagon
from cograte.gaussian import (
    _capacity_arrays,
    _g2_arrays,
    _g3p_arrays,
    _ga_arrays,
    _gb_arrays,
    b_condition,
    b_star,
    capacity_region,
    g1_region,
    g2_region,
    g3_pentagon,
    g3p_region,
    g_region,
    lambda_opt,
)
from cograte import gaussian
from cograte.geometry import hull_of_slabs, hull_of_union, subset_within


def hl2(x):
    return 0.5 * math.log2(x)


CH = ChannelParams(6.0, 6.0, 1.3628)
CH2 = ChannelParams(6.0, 6.0, 2.0)


class TestGaArrays:
    def test_all_power_on_own_message(self):
        # alpha=1, beta=1: private cognitive signal only, no relaying
        r1, r2, s = _ga_arrays(CH, 1.0, 1.0, np.array([0.0, 0.3, 1.0]))
        assert r1 == pytest.approx(hl2(7), abs=1e-12)
        assert r2 == pytest.approx(hl2(7), abs=1e-12)
        assert s == pytest.approx(hl2(1 + 6 + CH.b**2 * 6), abs=1e-12)

    def test_alpha_zero_kills_r1(self):
        for b in (1.0, 2.0):
            r1, _, _ = _ga_arrays(ChannelParams(6, 6, b), 0.0, 0.7, 0.4)
            assert r1 == 0.0

    def test_p1_zero_channel(self):
        r1, r2, _ = _ga_arrays(ChannelParams(0, 6, 2), 0.5, 0.5, 0.5)
        assert r1 == 0.0
        assert r2 == pytest.approx(hl2(7), abs=1e-12)


class TestGbArrays:
    def test_full_relay_split(self):
        # alpha=1, beta=0: all cognitive power carries the primary message
        r1, r2, s = _gb_arrays(CH2, 1.0, 0.0)
        assert r1 == pytest.approx(hl2(7), abs=1e-12)
        assert r2 == pytest.approx(hl2(1 + 6 / 25), abs=1e-12)
        assert s == pytest.approx(hl2(1 + 6 / 25) + hl2(7), abs=1e-12)

    def test_alpha_zero_beamforms(self):
        r1, r2, _ = _gb_arrays(CH2, 0.0, 0.3)
        assert r1 == 0.0
        assert r2 == pytest.approx(hl2(1 + (2 * math.sqrt(6) + math.sqrt(6)) ** 2), abs=1e-12)

    def test_relay_without_secondary_power(self):
        _, r2, _ = _gb_arrays(ChannelParams(6, 0, 1), 0.5, 1.0)
        assert r2 == pytest.approx(1.0, abs=1e-12)


class TestG2Arrays:
    def test_alpha_one(self):
        r1, r2, s = _g2_arrays(CH2, 1.0)
        assert r1 == pytest.approx(hl2(7), abs=1e-12)
        assert r2 == pytest.approx(hl2(7), abs=1e-12)
        assert s == pytest.approx(hl2(31), abs=1e-12)

    def test_alpha_zero(self):
        r1, r2, s = _g2_arrays(CH2, 0.0)
        assert r1 == 0.0
        assert r2 == pytest.approx(hl2(55), abs=1e-12)
        assert s == pytest.approx(hl2(55), abs=1e-12)

    def test_p1_zero(self):
        r1, r2, s = _g2_arrays(ChannelParams(0, 9, 3), 0.7)
        assert r1 == 0.0
        assert r2 == pytest.approx(hl2(10), abs=1e-12)
        assert s == pytest.approx(hl2(10), abs=1e-12)

    def test_monotone_in_alpha(self):
        r1, r2, _ = _g2_arrays(CH, np.linspace(0.0, 1.0, 101))
        assert np.all(np.diff(r1) >= 0)
        assert np.all(np.diff(r2) <= 0)


class TestG3Pentagon:
    def test_lambda_zero_alpha_one(self):
        p = g3_pentagon(CH2, alpha=1.0, lam=0.0)
        assert p.r1_max == pytest.approx(hl2(7), abs=1e-12)

    def test_lambda_zero_alpha_zero(self):
        p = g3_pentagon(CH2, alpha=0.0, lam=0.0)
        assert p.r1_max == pytest.approx(0.0, abs=1e-12)

    def test_optimal_lambda_collapses_r1(self):
        lam = lambda_opt(ChannelParams(6, 6, 1.2), 0.5)
        p = g3_pentagon(ChannelParams(6, 6, 1.2), alpha=0.5, lam=lam)
        assert p.r1_max == pytest.approx(1.0, abs=1e-12)  # half log2(1+3)

    def test_bad_lambda_can_empty_the_pentagon(self):
        assert g3_pentagon(CH2, alpha=0.5, lam=50.0).is_empty()

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            g3_pentagon(CH2, alpha=0.5, lam=-0.5)
        with pytest.raises(ValueError):
            g3_pentagon(CH2, alpha=0.5, lam=float("inf"))


class TestLambdaOpt:
    def test_endpoints_vanish(self):
        assert lambda_opt(CH, 1.0) == 0.0
        assert lambda_opt(CH, 0.0) == 0.0

    def test_interior_value(self):
        assert lambda_opt(ChannelParams(6, 3, 1.1), 0.5) == pytest.approx(0.75, abs=1e-15)


class TestG3pArrays:
    def test_max_r2_corner_at_threshold_gain(self):
        b = math.sqrt(13 / 7)
        r1, _, s = _g3p_arrays(ChannelParams(6, 6, b), 0.0)
        assert r1 == 0.0
        expect = hl2((b * math.sqrt(6) + math.sqrt(6)) ** 2 + 1)
        assert s == pytest.approx(expect, abs=1e-12)

    def test_alpha_one(self):
        r1, _, s = _g3p_arrays(CH2, 1.0)
        assert r1 == pytest.approx(hl2(7), abs=1e-12)
        assert s == pytest.approx(hl2(6 + 4 * 6 + 1), abs=1e-12)

    def test_p1_zero(self):
        assert _g3p_arrays(ChannelParams(0, 6, 2), 0.4)[0] == 0.0

    @pytest.mark.parametrize("b", [1e4, 1e8, 1e10, 1e100])
    def test_r2_keeps_its_digits_at_huge_gains(self, b):
        # at alpha=1 nothing is relayed and r2 is exactly hl2(1 + P2),
        # however loud the cognitive signal is at receiver 2
        assert _g3p_arrays(ChannelParams(6, 6, b), 1.0)[1] == pytest.approx(
            hl2(7), abs=1e-12)


class TestCapacityArrays:
    def test_alpha_one_unit_gain(self):
        r1, r2, s = _capacity_arrays(ChannelParams(6, 6, 1), 1.0)
        assert r1 == pytest.approx(hl2(7), abs=1e-12)
        assert s == pytest.approx(hl2(13), abs=1e-12)
        assert r2 == s  # no individual R2 cap

    def test_alpha_zero_beamforming_corner(self):
        r1, _, s = _capacity_arrays(ChannelParams(6, 6, 1), 0.0)
        assert r1 == 0.0
        assert s == pytest.approx(hl2(25), abs=1e-12)

    def test_p1_zero(self):
        r1, _, s = _capacity_arrays(ChannelParams(0, 4, 1), 0.9)
        assert r1 == 0.0
        assert s == pytest.approx(hl2(5), abs=1e-12)


class TestBStar:
    def test_reference_channel(self):
        assert b_star(CH) == pytest.approx(math.sqrt(13 / 7), abs=1e-15)
        assert b_star(CH) == pytest.approx(1.3628, abs=1e-4)

    def test_no_primary_power(self):
        assert b_star(ChannelParams(6, 0, 1)) == 1.0

    def test_per_alpha_condition(self):
        assert b_condition(CH, 1.0) == pytest.approx(math.sqrt(7), abs=1e-15)
        assert b_condition(CH, 0.0) == pytest.approx(b_star(CH), abs=0)

    def test_condition_monotone_in_alpha(self):
        alphas = np.linspace(0.0, 1.0, 51)
        vals = [b_condition(CH, a) for a in alphas]
        assert np.all(np.diff(vals) >= 0)


class TestFamilyConsistency:
    def test_g3_at_optimal_lambda_matches_g3p(self):
        rng = np.random.default_rng(5)
        channels = [CH, ChannelParams(6, 6, 3.3628)] + [
            ChannelParams(rng.uniform(0.1, 10), rng.uniform(0, 10), rng.uniform(1, 4))
            for _ in range(5)
        ]
        alphas = np.linspace(0.0, 1.0, 201)
        for ch in channels:
            for a, *pp in zip(alphas, *_g3p_arrays(ch, alphas)):
                p3 = g3_pentagon(ch, a, lambda_opt(ch, a))
                assert abs(p3.r1_max - pp[0]) <= 1e-9
                assert abs(p3.r2_max - pp[1]) <= 1e-9
                assert abs(p3.sum_max - pp[2]) <= 1e-9

    def test_g3p_r1_closed_form_is_exact(self):
        alphas = np.linspace(0.0, 1.0, 201)
        for ch in (CH, CH2, ChannelParams(0.3, 8, 1.5)):
            got = _g3p_arrays(ch, alphas)[0]
            want = [hl2(1 + a * ch.p1) for a in alphas]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_g3p_meets_outer_bound_pointwise(self):
        # the rho = sqrt(1-alpha) correspondence behind the capacity proof
        alphas = np.linspace(0.0, 1.0, 201)
        for ch in (CH, ChannelParams(2, 5, 1.1)):
            r1, _, s = _g3p_arrays(ch, alphas)
            for a, inner_r1, inner_s in zip(alphas, r1, s):
                outer = co1_pentagon(ch, rho=math.sqrt(1 - a))
                assert abs(inner_r1 - outer.r1_max) <= 1e-9
                assert abs(inner_s - outer.sum_max) <= 1e-9

    def test_achievable_families_never_empty(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            ch = ChannelParams(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(1, 4))
            a, bta, th = rng.uniform(0, 1, 3)
            for bounds in (
                _ga_arrays(ch, a, bta, th),
                _gb_arrays(ch, a, bta),
                _g2_arrays(ch, a),
                _g3p_arrays(ch, a),
            ):
                assert min(bounds) >= 0


class TestLoosenessCondition:
    # For alpha > 0 the R2 cap is slack (the sum constraint already implies
    # it) exactly when b <= b_condition(ch, alpha); at alpha = 0 the margin
    # vanishes identically for every gain.

    @staticmethod
    def _margin(ch, alphas):
        cap_r1, _, cap_s = _capacity_arrays(ch, alphas)
        return _g3p_arrays(ch, alphas)[1] - (cap_s - cap_r1)

    def test_margin_sign_tracks_condition(self):
        alphas = np.linspace(0.01, 1.0, 34)
        for b in (1.0, 1.2, b_star(CH), 2.0, 3.3628):
            ch = ChannelParams(6, 6, b)
            for a, margin in zip(alphas, self._margin(ch, alphas)):
                if b <= b_condition(ch, a) - 1e-9:
                    assert margin >= -1e-9
                elif b >= b_condition(ch, a) + 1e-9:
                    assert margin < 0

    def test_margin_zero_at_alpha_zero(self):
        for b in (1.0, 2.0, 3.3628):
            assert self._margin(ChannelParams(6, 6, b), 0.0) == pytest.approx(0.0, abs=1e-12)


class TestRegionBuilders:
    def test_g1_is_the_beta_zero_slice(self):
        ch = CH
        n = 21
        alphas = np.linspace(0, 1, n)
        thetas = np.linspace(0, 1, n)
        bounds = [np.broadcast_arrays(*_ga_arrays(ch, alphas[:, None], 0.0, thetas[None, :])),
                  _gb_arrays(ch, alphas, 0.0)]
        pens = [Pentagon(*p) for r1, r2, s in bounds
                for p in zip(r1.ravel().tolist(), r2.ravel().tolist(), s.ravel().tolist())]
        manual = hull_of_union(pens, n_directions=181)
        built = g1_region(ch, n_alpha=n, n_theta=n, n_directions=181)
        assert np.abs(manual.support - built.support).max() <= 1e-12

    def test_capacity_region_axis_supports(self):
        reg = capacity_region(ChannelParams(6, 6, 1.0), n_alpha=201, n_directions=181)
        assert reg.support[0] == pytest.approx(hl2(7), abs=1e-9)
        assert reg.support[-1] == pytest.approx(hl2(25), abs=1e-9)

    def test_g2_region_degenerate_channel_is_a_segment(self):
        reg = g2_region(ChannelParams(0, 6, 2), n_alpha=51, n_directions=181)
        pts = reg.boundary
        assert np.abs(pts[:, 0]).max() <= 1e-9
        assert pts[:, 1].max() == pytest.approx(hl2(7), abs=1e-9)

    def test_lambda_sweep_covers_g3p(self):
        # g3 over a coefficient sweep truncated to [0, 4*lambda_opt + 1]
        ch = CH
        alphas = np.linspace(0.0, 1.0, 51)
        lam_hi = np.array([4.0 * lambda_opt(ch, a) + 1.0 for a in alphas])
        lams = lam_hi[:, None] * np.linspace(0.0, 1.0, 51)[None, :]
        bounds = np.broadcast_arrays(*gaussian._g3_arrays(ch, alphas[:, None], lams))
        sweep = hull_of_slabs([bounds], n_directions=181)
        base = g3p_region(ch, n_alpha=51, n_directions=181)
        assert subset_within(base, sweep, tol=1e-3).is_subset

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            g3p_region(CH, n_alpha=1)


def _every_rate_split_pentagon(ch, alphas, betas, thetas):
    """All ga and gb bounds of a grid in one set of flat arrays (one theta at alpha=1)."""
    full = alphas[alphas < 1.0]
    parts = (
        gaussian._ga_arrays(ch, full[:, None, None], betas[None, :, None],
                            thetas[None, None, :]),
        gaussian._ga_arrays(ch, alphas[alphas == 1.0][:, None], betas[None, :], 0.0),
        gaussian._gb_arrays(ch, alphas[:, None], betas[None, :]),
    )
    flat = [[x.ravel() for x in np.broadcast_arrays(*part)] for part in parts]
    return [np.concatenate(bounds) for bounds in zip(*flat)]


class TestRateSplitSlabs:
    @pytest.mark.parametrize("p2", [6.0, 0.0])
    @pytest.mark.parametrize("b", [1.0, 1.3628, 3.3628])
    def test_slabs_match_the_one_shot_hull(self, b, p2, monkeypatch):
        ch = ChannelParams(6.0, p2, b)
        na, nb, nt = 23, 7, 9
        alphas, betas, thetas = (np.linspace(0.0, 1.0, n) for n in (na, nb, nt))
        slab_sizes = []

        def recorded(slabs, *args, **kwargs):
            slabs = list(slabs)
            slab_sizes.append([r1.size for r1, _, _ in slabs])
            return hull(slabs, *args, **kwargs)

        hull = gaussian.hull_of_slabs
        monkeypatch.setattr(gaussian, "hull_of_slabs", recorded)
        # two alpha rows per slab: 12 slabs, the last one holding alpha=1 only
        monkeypatch.setattr(gaussian, "_SLAB_PENTAGONS", 2 * nb * (nt + 1))
        g = g_region(ch, na, nb, nt, 181)
        monkeypatch.setattr(gaussian, "_SLAB_PENTAGONS", 2 * (nt + 1))
        g1 = g1_region(ch, na, nt, 181)
        assert len(slab_sizes) == 2
        for sizes, rows in zip(slab_sizes, (nb, 1)):
            assert sizes == [2 * rows * (nt + 1)] * 11 + [2 * rows]
        for region, bt in ((g, betas), (g1, np.zeros(1))):
            one_shot = hull_of_slabs(
                [_every_rate_split_pentagon(ch, alphas, bt, thetas)], 181)
            assert np.array_equal(region.support, one_shot.support)
            assert np.array_equal(region.boundary, one_shot.boundary)

    def test_default_g_slabs_bound_memory(self):
        # the whole 101^3 family at once peaked near 200 MB
        tracemalloc.start()
        try:
            g_region(ChannelParams(6.0, 6.0, 3.3628), 101, 101, 101, 721)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"
