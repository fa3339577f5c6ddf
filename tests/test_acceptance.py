"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each test prints a single `criterion NN: PASS|FAIL - ...` line with the
measured quantities, then asserts.  Budgets are wall-clock seconds.
"""

import math
import os
import time

import numpy as np

from cograte.bounds import co1_pentagon, co1_region, co2_region
from cograte.cli import main
from cograte.dmc import (
    DmcChannel,
    FactoredDist,
    conditional_mi,
    eval_region_R,
    eval_region_R1,
    eval_region_R2,
    mutual_information,
    random_dist,
)
from cograte.gaussian import (
    _capacity_arrays,
    _g3p_arrays,
    b_star,
    g1_region,
    g2_region,
    g3p_region,
    g_region,
)
from cograte.geometry import directed_gap, hull_of_union, subset_within
from cograte.model import ChannelParams, Pentagon, RatePair


def hl2(x):
    return 0.5 * math.log2(x)


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_01_threshold_gain_closed_form():
    t0 = time.perf_counter()
    val = b_star(ChannelParams(6.0, 6.0, 1.0))
    dt = time.perf_counter() - t0
    ok = (abs(val - math.sqrt(13.0 / 7.0)) <= 1e-12
          and abs(val - 1.3628) < 5e-5 and dt < 1.0)
    report(1, ok, f"b_star(6,6) = {val:.9f} vs sqrt(13/7), {dt:.3f}s")


def test_02_precoding_family_meets_the_outer_bound_below_threshold():
    t0 = time.perf_counter()
    gaps = {}
    for b in (1.0, 1.3628, 3.3628):
        ch = ChannelParams(6.0, 6.0, b)
        outer = co1_region(ch, n_rho=201, n_directions=721)
        inner = g3p_region(ch, n_alpha=201, n_directions=721)
        gaps[b] = directed_gap(outer, inner)
    dt = time.perf_counter() - t0
    ok = (gaps[1.0] <= 1e-3 and gaps[1.3628] <= 1e-3
          and gaps[3.3628] > 1e-2 and dt < 5.0)
    report(2, ok, "gap(co1, g3p) = "
           + ", ".join(f"{g:.2e} at b={b:g}" for b, g in gaps.items())
           + f", {dt:.1f}s")


def test_03_precoding_pentagons_match_outer_pentagons_pointwise():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    alphas = np.linspace(0.0, 1.0, 201)
    worst = 0.0
    for _ in range(10):
        p1, p2 = rng.uniform(0.5, 20.0, size=2)
        ch = ChannelParams(p1, p2, rng.uniform(1.0, 4.0))
        r1, _, s = _g3p_arrays(ch, alphas)
        for a, inner_r1, inner_s in zip(alphas, r1, s):
            outer = co1_pentagon(ch, math.sqrt(1.0 - a))
            worst = max(worst,
                        abs(inner_r1 - outer.r1_max),
                        abs(inner_s - outer.sum_max))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0
    report(3, ok, f"max |r1, sum| mismatch = {worst:.2e} "
           f"over 10 channels x 201 splits, {dt:.2f}s")


def _margin(ch, alphas):
    cap_r1, _, cap_s = _capacity_arrays(ch, alphas)
    return _g3p_arrays(ch, alphas)[1] - (cap_s - cap_r1)


def test_04_looseness_margin_changes_sign_with_the_gain():
    t0 = time.perf_counter()
    alphas = np.linspace(0.0, 1.0, 201)
    bs = b_star(ChannelParams(6.0, 6.0, 1.0))
    low_ok = all(
        bool(np.all(_margin(ChannelParams(6.0, 6.0, b), alphas) >= -1e-9))
        for b in (1.0, bs)
    )
    high_neg = float(_margin(ChannelParams(6.0, 6.0, 3.3628), alphas).min())
    dt = time.perf_counter() - t0
    ok = low_ok and high_neg < -1e-9 and dt < 1.0
    report(4, ok, f"margin >= -1e-9 up to b_star: {low_ok}; "
           f"min margin at b=3.3628 is {high_neg:.4f}, {dt:.2f}s")


def test_05_full_family_collapses_to_superposition_only():
    t0 = time.perf_counter()
    gaps = {}
    for b in (1.3628, 3.3628):
        ch = ChannelParams(6.0, 6.0, b)
        full = g_region(ch, 101, 101, 101, 721)
        gaps[b] = (directed_gap(full, g2_region(ch, 101, 721)),
                   directed_gap(full, g1_region(ch, 101, 101, 721)))
    dt = time.perf_counter() - t0
    ok = (all(g2 <= 5e-3 and g1 > 5e-3 for g2, g1 in gaps.values())
          and dt < 60.0)
    report(5, ok, "gap(g, g2) / gap(g, g1) = "
           + ", ".join(f"{g2:.1e}/{g1:.3f} at b={b:g}"
                       for b, (g2, g1) in gaps.items())
           + f", {dt:.1f}s")


def test_06_precoding_helps_below_threshold_and_hurts_above():
    t0 = time.perf_counter()
    ch_lo = ChannelParams(6.0, 6.0, 1.3628)
    g3p_lo = g3p_region(ch_lo, 201, 721)
    over_g1 = directed_gap(g3p_lo, g1_region(ch_lo, 201, 201, 721))
    over_g2 = directed_gap(g3p_lo, g2_region(ch_lo, 201, 721))
    ch_hi = ChannelParams(6.0, 6.0, 3.3628)
    under_g2 = directed_gap(g2_region(ch_hi, 201, 721),
                            g3p_region(ch_hi, 201, 721))
    dt = time.perf_counter() - t0
    ok = (over_g1 > 5e-3 and over_g2 > 5e-3 and under_g2 > 5e-3
          and dt < 60.0)
    report(6, ok, f"g3p over g1/g2 by {over_g1:.3f}/{over_g2:.3f} at b=1.3628;"
           f" g2 over g3p by {under_g2:.3f} at b=3.3628, {dt:.1f}s")


def test_07_intersection_outer_bound_is_strictly_tighter():
    t0 = time.perf_counter()
    ch = ChannelParams(6.0, 0.0, 2.0)
    outer = co1_region(ch, n_rho=201, n_directions=721)
    inner = co2_region(ch, n_rho=201, n_grid=41, n_directions=721)
    rep = subset_within(inner, outer, tol=1e-9)
    gap = directed_gap(outer, inner)
    w = RatePair(hl2(7.0), 0.918)
    in_old = outer.contains(w, tol=1e-9)
    in_new = inner.contains(w, tol=1e-9)
    dt = time.perf_counter() - t0
    ok = rep.is_subset and gap > 5e-2 and in_old and not in_new and dt < 120.0
    report(7, ok, f"co2 within co1: {rep.is_subset}, gap = {gap:.3f} bits, "
           f"witness ({w.r1:.4f}, {w.r2}) in co1: {in_old}, "
           f"in co2: {in_new}, {dt:.1f}s")


def _chain_hull(points):
    """Lower-left to upper-right convex chain of a 2-D point cloud."""
    pts = sorted(set(points))
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2:
            (ox, oy), (ax, ay) = upper[-2], upper[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                upper.pop()
            else:
                break
        upper.append(p)
    return upper


def test_08_support_hull_agrees_with_a_point_cloud_hull():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 9))
        pens = []
        for _ in range(k):
            a, b = rng.uniform(0.2, 2.0, size=2)
            s = rng.uniform(0.6 * (a + b), a + b)
            pens.append(Pentagon(a, b, s))
        region = hull_of_union(pens)
        cloud = [(0.0, 0.0)]
        for p in pens:
            cloud.extend(p.vertices())
            u = rng.uniform(0.0, 1.0, size=(2000 // k, 2))
            samp = u * np.array([p.r1_max, p.r2_max])
            keep = samp.sum(axis=1) <= p.sum_max
            cloud.extend(map(tuple, samp[keep]))
        hull = np.array(_chain_hull(cloud))
        cloud_support = (region.directions @ hull.T).max(axis=1)
        worst = max(worst, float(np.abs(region.support - cloud_support).max()))
    dt = time.perf_counter() - t0
    ok = worst <= 2e-3 and dt < 10.0
    report(8, ok, f"max |support difference| = {worst:.2e} "
           f"over 20 families, {dt:.1f}s")


def test_09_information_identities_hold_numerically():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)

    worst_chain = 0.0
    for _ in range(1000):
        k1 = rng.dirichlet(np.ones(3), size=2)
        k2 = rng.dirichlet(np.ones(3), size=4).reshape(2, 2, 3)
        ch = DmcChannel.from_kernels(k1, k2)
        d = random_dist("r2", ch, rng=rng)
        juvy = np.einsum("uvxz,xzn->uvn", d.joint(), ch.k2_cube)
        nu, nv, ny = juvy.shape
        whole = mutual_information(juvy.reshape(nu * nv, ny))
        split = (mutual_information(juvy.sum(axis=1))
                 + conditional_mi(juvy.transpose(1, 2, 0)))
        worst_chain = max(worst_chain, abs(whole - split))

    worst_spec = 0.0
    for _ in range(100):
        k1 = rng.dirichlet(np.ones(2), size=2)
        k2 = rng.dirichlet(np.ones(2), size=4).reshape(2, 2, 2)
        ch = DmcChannel.from_kernels(k1, k2)
        d1 = random_dist("r1", ch, rng=rng)
        f = d1.factors
        lifted = FactoredDist("full", {
            "pu1": np.ones(1),
            "pv2": f["pv2"],
            "pw12": f["pw12"][None],
            "px1": f["px1"][None],
            "px2": f["px2"],
        })
        pa, pb = eval_region_R(lifted, ch), eval_region_R1(d1, ch)
        nv = 3
        pv2 = rng.dirichlet(np.ones(nv))
        px1_uv = rng.dirichlet(np.ones(2), size=nv)
        px2 = rng.dirichlet(np.ones(2), size=nv)
        w2_copies_v2 = np.zeros((nv, 1, nv))
        w2_copies_v2[np.arange(nv), 0, np.arange(nv)] = 1.0
        merged = FactoredDist("r1", {
            "pv2": pv2,
            "pw12": w2_copies_v2,
            "px1": np.broadcast_to(px1_uv[:, None, None, :],
                                   (nv, 1, nv, 2)).copy(),
            "px2": px2,
        })
        base = FactoredDist("r2", {
            "pu1": np.ones(1),
            "pv2": pv2,
            "px1": px1_uv[None],
            "px2": px2,
        })
        pc, pd = eval_region_R1(merged, ch), eval_region_R2(base, ch)
        for x, y in ((pa, pb), (pc, pd)):
            worst_spec = max(worst_spec,
                             abs(x.r1_max - y.r1_max),
                             abs(x.r2_max - y.r2_max),
                             abs(x.sum_max - y.sum_max))

    eps = 0.11
    joint = 0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]])
    bsc_err = abs(mutual_information(joint)
                  - (1 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)))

    dt = time.perf_counter() - t0
    ok = (worst_chain <= 1e-12 and worst_spec <= 1e-12
          and bsc_err <= 1e-9 and dt < 30.0)
    report(9, ok, f"chain-rule residual {worst_chain:.1e} (1000 draws), "
           f"specialization residual {worst_spec:.1e} (100 draws), "
           f"crossover-channel error {bsc_err:.1e}, {dt:.1f}s")


def test_10_figure_output_is_byte_reproducible(tmp_path):
    t0 = time.perf_counter()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["figure", "fig2", "--output", str(first)]) == 0
    assert main(["figure", "fig2", "--output", str(second)]) == 0
    names = sorted(n for n in os.listdir(first) if n.endswith(".csv"))
    same = []
    for name in names:
        with open(first / name, "rb") as fa, open(second / name, "rb") as fb:
            same.append(fa.read() == fb.read())
    dt = time.perf_counter() - t0
    ok = len(names) == 6 and all(same)
    report(10, ok, f"{sum(same)}/{len(names)} curve files byte-identical "
           f"across two runs, {dt:.1f}s")
