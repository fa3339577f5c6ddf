"""Closed-form Gaussian rate families, the capacity region, and b_star."""

import functools
import math
import re
import tracemalloc
from types import SimpleNamespace

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
from cograte import gaussian, geometry
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
        sweep = hull_of_slabs(bounds, n_directions=181)
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


def _unscreened_slabs(ch, alphas, betas, thetas):
    """The seed and the row slabs of the rate-splitting hull over the grid,
    every row evaluated whole."""
    seed = _every_rate_split_pentagon(
        ch, *(gaussian._seed_points(g) for g in (alphas, betas, thetas)))
    with pytest.MonkeyPatch.context() as mp:
        # as when the first row slab's screen keeps too many blocks to pay
        mp.setattr(gaussian, "_screened_ga", lambda *args: None)
        return [seed, *gaussian._rate_split_rows(ch, alphas, betas, thetas, None)]


def _sliced(slabs, n_directions=181):
    """hull_of_slabs with the first slab as its seed and the others as its rows."""
    seed, *rest = slabs
    return hull_of_slabs(seed, n_directions, rows=lambda screen: (slab for slab in rest))


def _family_triples(bounds):
    return set(zip(*(v.tolist() for v in bounds)))


def _in_order_within(part, whole):
    """Whether the (r1, r2, s) triples of part are some of whole's, in order."""
    rest = iter(zip(*(v.tolist() for v in whole)))
    return all(t in rest for t in zip(*(v.tolist() for v in part)))


def _near_seed_chain(chain, slab):
    """The pentagons of slab with a top corner that _near_chain keeps."""
    near, n = geometry._near_chain(*chain, *geometry._top_corners(*slab)), slab[0].size
    return [v[near[:n] | near[n:]] for v in slab]


class TestRateSplitSlabs:
    @pytest.mark.parametrize("p2", [6.0, 0.0])
    @pytest.mark.parametrize("b", [1.0, 1.3628, 3.3628])
    def test_slabs_match_the_one_shot_hull(self, b, p2, monkeypatch):
        ch = ChannelParams(6.0, p2, b)
        na, nb, nt = 23, 7, 41
        alphas, betas, thetas = (np.linspace(0.0, 1.0, n) for n in (na, nb, nt))
        slabs_seen = []

        def recorded(seed, *args, rows, **kwargs):
            seen = [seed]
            slabs_seen.append(seen)

            def rows_seen(screen):
                # each slab of the family's own generator, as hull_of_slabs takes it
                for slab in rows(screen):
                    seen.append(slab)
                    yield slab

            return hull(seed, *args, rows=rows_seen, **kwargs)

        hull = gaussian.hull_of_slabs
        monkeypatch.setattr(gaussian, "hull_of_slabs", recorded)
        # screen every slab, however many blocks it keeps
        monkeypatch.setattr(gaussian, "_SCREEN_KEEP_MAX", 1.0)
        # two alpha rows per slab: 12 slabs, the last one holding alpha=1 only
        monkeypatch.setattr(gaussian, "_SLAB_PENTAGONS", 2 * nb * (nt + 1))
        g = g_region(ch, na, nb, nt, 181)
        raw_g = _unscreened_slabs(ch, alphas, betas, thetas)
        monkeypatch.setattr(gaussian, "_SLAB_PENTAGONS", 2 * (nt + 1))
        g1 = g1_region(ch, na, nt, 181)
        raw_g1 = _unscreened_slabs(ch, alphas, np.zeros(1), thetas)
        assert len(slabs_seen) == 2
        # the seed: 11 of the 23 alphas and 41 thetas, indices 2.2 and 4
        # apart and rounded, and every beta, as there are at most SEED_GRID
        seed_alphas = alphas[[0, 2, 4, 7, 9, 11, 13, 15, 18, 20, 22]]
        dropped = 0
        for slabs, raw, bt in zip(slabs_seen, (raw_g, raw_g1), (betas, np.zeros(1))):
            rows = bt.size
            seed = _every_rate_split_pentagon(ch, seed_alphas, bt, thetas[::4])
            assert all(np.array_equal(a, b) for a, b in zip(slabs[0], seed))
            assert all(np.array_equal(a, b) for a, b in zip(raw[0], seed))
            # unscreened, each row slab holds the whole grid of its rows
            assert [r1.size for r1, _, _ in raw[1:]] == [2 * rows * (nt + 1)] * 11 + [2 * rows]
            chain = geometry._corner_chain(*geometry._top_corners(*seed))
            for got, whole, tail in zip(slabs[1:], raw[1:], [2 * rows] * 11 + [2 * rows]):
                # screened, it holds in order a part of its unscreened slab:
                # every pentagon the seed's chain can keep, and the alpha=1
                # row and gb whole
                assert _in_order_within(got, whole)
                assert all(np.array_equal(a, b) for a, b in
                           zip(_near_seed_chain(chain, got), _near_seed_chain(chain, whole)))
                assert all(np.array_equal(a[-tail:], b[-tail:]) for a, b in zip(got, whole))
                dropped += whole[0].size - got[0].size
        if p2 > 0.0:
            assert dropped > 0
        for region, bt in ((g, betas), (g1, np.zeros(1))):
            one_shot = hull_of_slabs(_every_rate_split_pentagon(ch, alphas, bt, thetas), 181)
            assert np.array_equal(region.support, one_shot.support)
            assert np.array_equal(region.boundary, one_shot.boundary)

    @pytest.mark.parametrize("b", [1.3628, 3.3628])
    def test_g_across_slabs_matches_one_slab(self, b, monkeypatch):
        # each slab after the seed is screened by the seed's chain
        ch = ChannelParams(6.0, 6.0, b)
        grid = np.linspace(0.0, 1.0, 31)
        one_slab = hull_of_slabs(_every_rate_split_pentagon(ch, grid, grid, grid))
        monkeypatch.setattr(gaussian, "_SLAB_PENTAGONS", 4 * 31 * 32)
        assert len(_unscreened_slabs(ch, grid, grid, grid)) == 1 + 8
        sliced = g_region(ch, 31, 31, 31)
        assert np.array_equal(sliced.support, one_slab.support)
        assert np.array_equal(sliced.boundary, one_slab.boundary)

    @pytest.mark.parametrize("n", [2, 11, 23, 37, 51])
    def test_seed_slab_changes_no_bit(self, n):
        ch = ChannelParams(6.0, 6.0, 3.3628)
        grid = np.linspace(0.0, 1.0, n)
        # both ends, evenly spread, at most SEED_GRID points
        pts = gaussian._seed_points(grid)
        assert pts.size == min(n, gaussian.SEED_GRID)
        assert pts[0] == 0.0 and pts[-1] == 1.0 and np.all(np.diff(pts) > 0.0)
        for betas, region in ((grid, g_region(ch, n, n, n)),
                              (np.zeros(1), g1_region(ch, n, n))):
            seed, *rows = _unscreened_slabs(ch, grid, betas, grid)
            assert _family_triples(seed) <= _family_triples(
                [np.concatenate(v) for v in zip(*rows)])
            without = _sliced(rows, 721)
            assert np.array_equal(region.support, without.support)
            assert np.array_equal(region.boundary, without.boundary)

    @pytest.mark.parametrize("family, n", [("g", 11), ("g1", 21)])
    def test_non_finite_count_never_exceeds_the_familys(self, family, n):
        # the received powers overflow, and the seed, whose pentagons are
        # also the grid's, is refused with its own count: 2,660 of the
        # family's 2,660 for g, 240 of 880 for g1.  ChannelParams refuses
        # such a channel, so a stand-in carries it past the check
        with pytest.raises(ValueError, match="received power overflows"):
            ChannelParams(1e160, 1.0, 1e80)
        ch = SimpleNamespace(p1=1e160, p2=1.0, b=1e80)
        grid = np.linspace(0.0, 1.0, n)
        betas = grid if family == "g" else np.zeros(1)
        with np.errstate(all="ignore"):
            own = sum(int(np.count_nonzero(~np.isfinite(v)))
                      for v in _every_rate_split_pentagon(ch, grid, betas, grid))
            with pytest.raises(ValueError, match="NaN or infinite in the seed") as err:
                if family == "g":
                    g_region(ch, n, n, n, 181)
                else:
                    g1_region(ch, n, n, 181)
        reported = int(re.search(r"(\d+) are NaN or infinite", str(err.value)).group(1))
        assert 0 < reported <= own

    def test_screen_chain_is_built_once(self, monkeypatch):
        # once from the seed slab for the screen, once in the kernel; a
        # one-slab hull builds only the kernel's
        calls = []
        chain = geometry._corner_chain

        def counted(x, y):
            calls.append(x.size)
            return chain(x, y)

        monkeypatch.setattr(geometry, "_corner_chain", counted)
        g_region(ChannelParams(6.0, 6.0, 3.3628), 101, 101, 101, 721)
        assert len(calls) == 2
        g2_region(ChannelParams(6.0, 6.0, 3.3628))
        assert len(calls) == 3

    @pytest.mark.parametrize("build", [lambda ch: g_region(ch, 101, 101, 101, 721),
                                       lambda ch: g1_region(ch, 201, 201, 721)],
                             ids=["g", "g1"])
    @pytest.mark.parametrize("ch", [(6.0, 6.0, 0.0), (0.0, 6.0, 2.0), (1e-20, 1e9, 1e6)],
                             ids=["b0", "p1zero", "rate-collapse"])
    def test_flat_chains_send_few_pentagons_to_the_kernel(self, build, ch, monkeypatch):
        # the seed's chain runs flat along x = 0 or y = max, so the rows'
        # corners on that foot are under its end vertex
        sizes = []
        kernel = geometry.support_max_over_pentagons

        def recorded(r1, r2, s, dirs):
            sizes.append(r1.size)
            return kernel(r1, r2, s, dirs)

        monkeypatch.setattr(geometry, "support_max_over_pentagons", recorded)
        build(ChannelParams(*ch))
        assert sizes[0] < 10_000

    def test_default_g_slabs_bound_memory(self):
        # the whole 101^3 family at once peaked near 200 MB
        tracemalloc.start()
        try:
            g_region(ChannelParams(6.0, 6.0, 3.3628), 101, 101, 101, 721)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"


#: Channels at the edges of the contract: no power on either side, no gain,
#: rates that underflow to 0, and powers where the absolute log2 margin is
#: widest.
EDGE_CHANNELS = [(0.0, 6.0, 2.0), (6.0, 0.0, 1.0), (6.0, 6.0, 0.0), (0.0, 0.0, 0.0),
                 (1e-20, 1e9, 1e6), (1e150, 1e150, 1.0)]


def _kernel_input(monkeypatch, build):
    """What build() hands support_max_over_pentagons, and its region."""
    seen = []
    kernel = geometry.support_max_over_pentagons

    def recorded(r1, r2, s, dirs):
        seen.append((r1, r2, s))
        return kernel(r1, r2, s, dirs)

    monkeypatch.setattr(geometry, "support_max_over_pentagons", recorded)
    region = build()
    monkeypatch.undo()
    (bounds,) = seen
    return bounds, region


class TestBlockScreen:
    def test_block_bounds_hold_every_member(self):
        # every member's rates stay within the margin _blocks_reaching
        # allows above its block's, and every member's log arguments at or
        # above the smallest at the block's ends (a_r2b at the upper end)
        rng = np.random.default_rng(22)
        channels = EDGE_CHANNELS + [tuple(10.0 ** rng.uniform(-6, 6, 3)) for _ in range(30)]
        slack = 1.0 + geometry._BLOCK_MARGIN / 4
        for p in channels:
            ch = ChannelParams(*p)
            alpha = np.append(rng.uniform(0.0, 1.0, 38), [0.0, 1.0])[:, None]
            beta = np.append(rng.uniform(0.0, 1.0, 38), [1.0, 0.0])[:, None]
            for thetas in (np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 30)))),
                           np.linspace(0.0, 1.0, 101)[20:25], np.linspace(0.0, 1.0, 5)):
                ends = thetas[[0, -1]]
                bound = gaussian._ga_block_bounds(ch, alpha, beta, ends)
                member = _ga_arrays(ch, alpha, beta, thetas[None, :])
                for m, u in zip(member, bound):
                    assert np.all(m <= u * slack), p
                a_r1a, a_r1b, a_r2a, a_r2b, a_sum = gaussian._ga_args(ch, alpha, beta, ends)
                lowest = (a_r1a, a_r1b[:, :1], a_r2a[:, :1], a_r2b[:, 1:], a_sum[:, :1])
                for m, lo in zip(gaussian._ga_args(ch, alpha, beta, thetas[None, :]), lowest):
                    assert np.all(m >= lo), p

    @pytest.mark.parametrize("p", [(10.0, 10.0, 5e153), (10.0, 10.0, 1e154),
                                   (1e307, 1e307, 10.0)])
    def test_non_finite_blocks_are_evaluated_member_by_member(self, p, monkeypatch):
        # a chain far above every pentagon drops each block with finite
        # bounds, yet the screened rows hold every NaN and infinity of the
        # unscreened ones
        monkeypatch.setattr(gaussian, "_SCREEN_KEEP_MAX", 1.0)
        # ChannelParams refuses these channels, so a stand-in carries them
        with pytest.raises(ValueError, match="received power overflows"):
            ChannelParams(*p)
        ch = SimpleNamespace(p1=p[0], p2=p[1], b=p[2])
        grid = np.linspace(0.0, 1.0, 23)
        above = np.array([1e6, 0.0]), np.array([0.0, 1e6])
        with np.errstate(all="ignore"):
            rows = gaussian._screened_ga(ch, grid[:-1], grid, grid,
                                         functools.partial(geometry._blocks_reaching, *above))
            whole = _ga_arrays(ch, grid[:-1, None, None], grid[None, :, None], grid[None, None, :])
        bad = [int(np.count_nonzero(~np.isfinite(v))) for v in whole]
        assert 0 < sum(bad) and rows[0].size < whole[0].size
        assert [int(np.count_nonzero(~np.isfinite(v))) for v in rows] == bad

    def test_log_argument_check_reaches_dropped_blocks(self):
        # past theta = 1 the dirty-paper coded power turns negative, so
        # a_r2b falls below 1 at the upper end of the last block; the screen
        # drops every block, yet the check fails
        grid = np.linspace(0.0, 1.0, 11)

        def never(r1, r2, s):
            return np.zeros(r1.shape, dtype=bool)

        rows = gaussian._screened_ga(CH, grid[:-1], grid, grid, never)
        assert rows[0].size == 0
        with pytest.raises(FloatingPointError, match="log argument"):
            gaussian._screened_ga(CH, grid[:-1], grid, np.linspace(0.0, 1.2, 13), never)

    @pytest.mark.parametrize("b", [0.0, 1.0, 1.3628, 2.0, 3.3628, 4.0])
    @pytest.mark.parametrize("family", ["g", "g1"])
    def test_kernel_input_is_the_unscreened_one(self, family, b, monkeypatch):
        # the same arrays in the same order as without the block screen
        ch = ChannelParams(6.0, 6.0, b)
        for n in (2, 5, 11, 23, 37, 51, 101):
            grid = np.linspace(0.0, 1.0, n)
            betas = grid if family == "g" else np.zeros(1)
            build = ((lambda: g_region(ch, n, n, n, 181)) if family == "g"
                     else (lambda: g1_region(ch, n, n, 181)))
            screened, region = _kernel_input(monkeypatch, build)
            whole, unscreened = _kernel_input(
                monkeypatch, lambda: _sliced(_unscreened_slabs(ch, grid, betas, grid)))
            assert all(np.array_equal(a, b) for a, b in zip(screened, whole)), n
            assert np.array_equal(region.support, unscreened.support)
            assert np.array_equal(region.boundary, unscreened.boundary)

    @pytest.mark.parametrize("p", EDGE_CHANNELS)
    def test_edge_channels_keep_their_kernel_input(self, p, monkeypatch):
        ch = ChannelParams(*p)
        grid = np.linspace(0.0, 1.0, 37)
        screened, _ = _kernel_input(monkeypatch, lambda: g_region(ch, 37, 37, 37, 181))
        whole, _ = _kernel_input(
            monkeypatch, lambda: _sliced(_unscreened_slabs(ch, grid, grid, grid)))
        assert all(np.array_equal(a, b) for a, b in zip(screened, whole))

    @pytest.mark.parametrize("p2, b, screened", [(0.0, 2.0, 1), (0.0, 3.0, 1),
                                                 (6.0, 1.3628, 34), (6.0, 3.3628, 34)])
    def test_a_slab_past_the_break_even_ends_the_screen(self, p2, b, screened, monkeypatch):
        # at P2 = 0, b > 1 the first row slab keeps nearly every block, so
        # it and every later slab are evaluated whole; at the fig3 gains
        # every one of the 34 row slabs is screened
        shares = []
        screen = geometry._blocks_reaching

        def counted(*args):
            keep = screen(*args)
            shares.append(keep.mean())
            return keep

        ch = ChannelParams(6.0, p2, b)
        monkeypatch.setattr(geometry, "_blocks_reaching", counted)
        got, region = _kernel_input(monkeypatch, lambda: g_region(ch, 101, 101, 101, 181))
        assert len(shares) == screened
        assert (max(shares) > gaussian._SCREEN_KEEP_MAX) == (screened == 1)
        grid = np.linspace(0.0, 1.0, 101)
        whole, unscreened = _kernel_input(
            monkeypatch, lambda: _sliced(_unscreened_slabs(ch, grid, grid, grid)))
        assert all(np.array_equal(x, y) for x, y in zip(got, whole))
        assert np.array_equal(region.boundary, unscreened.boundary)

    def test_flat_face_drops_no_block(self, monkeypatch):
        # at P2 = 0, b = 1 every top corner lies within roundoff of the
        # seed chain's sum face, so the whole grid is evaluated (and the
        # CLI's budget counts it)
        kept = []
        screen = geometry._blocks_reaching

        def counted(*args):
            keep = screen(*args)
            kept.append(bool(keep.all()))
            return keep

        monkeypatch.setattr(geometry, "_blocks_reaching", counted)
        g_region(ChannelParams(6.0, 0.0, 1.0), 51, 51, 51, 181)
        assert kept and all(kept)
