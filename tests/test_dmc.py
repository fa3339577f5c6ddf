"""Finite-alphabet regions: exact mutual-information evaluation, the four
achievable-region variants, the outer bound, and randomized search."""

import functools
import math

import numpy as np
import pytest

from cograte import dmc
from cograte.dmc import (
    VARIANTS,
    DmcChannel,
    FactoredDist,
    check_high_interference,
    conditional_mi,
    eval_outer_co2_dmc,
    eval_region_R,
    eval_region_R1,
    eval_region_R2,
    eval_region_R3,
    mutual_information,
    random_dist,
    random_search_region,
)
from cograte.geometry import hull_of_union


def noiseless_pair():
    """y1 = x1 and y2 = x2, all binary."""
    k1 = np.eye(2)
    k2 = np.zeros((2, 2, 2))
    k2[:, 0, 0] = 1.0
    k2[:, 1, 1] = 1.0
    return DmcChannel.from_kernels(k1, k2)


def crossover_pair():
    """y1 = x1 noiselessly; y2 = x1 (receiver 2 hears the cognitive signal)."""
    k2 = np.zeros((2, 2, 2))
    k2[0, :, 0] = 1.0
    k2[1, :, 1] = 1.0
    return DmcChannel.from_kernels(np.eye(2), k2)


def bsc(eps):
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


def delta_cond(n_in_shape, n_out, rule):
    """Deterministic conditional table p(out|ins) with out = rule(*ins)."""
    t = np.zeros(n_in_shape + (n_out,))
    for idx in np.ndindex(*n_in_shape):
        t[idx + (rule(*idx),)] = 1.0
    return t


class TestDmcChannel:
    def test_kernel_shapes(self):
        ch = noiseless_pair()
        assert (ch.nx1, ch.nx2, ch.ny1, ch.ny2) == (2, 2, 2, 2)
        assert ch.k2.shape == (4, 2)
        assert ch.k2_cube.shape == (2, 2, 2)

    def test_rows_must_be_stochastic(self):
        bad = np.array([[0.6, 0.3], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sum to 1"):
            DmcChannel.from_kernels(bad, np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="finite and >= 0"):
            DmcChannel.from_kernels(np.array([[1.2, -0.2], [0.5, 0.5]]),
                                    np.full((2, 2, 2), 0.5))


class TestMutualInformation:
    def test_independent_bits(self):
        assert mutual_information(np.full((2, 2), 0.25)) == 0.0

    def test_correlated_bits(self):
        assert mutual_information(np.eye(2) * 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_binary_symmetric_flip(self):
        eps = 0.11
        joint = 0.5 * bsc(eps)
        want = 1 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps)
        assert mutual_information(joint) == pytest.approx(want, abs=1e-9)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="sums to"):
            mutual_information(np.full((2, 2), 0.3))
        with pytest.raises(ValueError, match="finite and >= 0"):
            mutual_information(np.array([[0.6, -0.1], [0.25, 0.25]]))
        with pytest.raises(ValueError, match="2-D"):
            mutual_information(np.full((2, 2, 2), 0.125))


class TestConditionalMI:
    def test_independent_conditioner(self):
        rng = np.random.default_rng(2)
        ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
        pc = rng.dirichlet(np.ones(3))
        table = ab[:, :, None] * pc[None, None, :]
        assert conditional_mi(table) == pytest.approx(mutual_information(ab), abs=1e-12)

    def test_fully_revealed(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[1, 1, 1] = 0.5
        assert conditional_mi(t) == 0.0

    def test_conditionally_independent_noisy_copies(self):
        eps = 0.2
        k = bsc(eps)
        # a and b are independent flips of a fair c
        t = np.zeros((2, 2, 2))
        for c in range(2):
            for a in range(2):
                for b in range(2):
                    t[a, b, c] = 0.5 * k[c, a] * k[c, b]
        assert conditional_mi(t) == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(t.sum(axis=2)) > 0.05


def _det_r2(ch):
    """R2-variant dist with u1 -> x1 and v2 -> x2, all uniform."""
    return FactoredDist("r2", {
        "pu1": np.full(2, 0.5),
        "pv2": np.full(2, 0.5),
        "px1": delta_cond((2, 2), 2, lambda u, v: u),
        "px2": delta_cond((2,), 2, lambda v: v),
    })


class TestEvalRegionR:
    def _dist(self, pw12_rule):
        # u1 is a singleton; w1 carries x1; x2 copies v2
        pw12 = np.zeros((1, 2, 2, 2))
        for v in range(2):
            for w1 in range(2):
                for w2 in range(2):
                    pw12[0, v, w1, w2] = pw12_rule(v, w1, w2)
        return FactoredDist("full", {
            "pu1": np.ones(1),
            "pv2": np.full(2, 0.5),
            "px1": delta_cond((1, 2, 2, 2), 2, lambda u, v, a, b: a),
            "px2": delta_cond((2,), 2, lambda v: v),
            "pw12": pw12,
        })

    def test_noiseless_rate_splitting_corner(self):
        # w1 uniform independent; w2 copies v2
        d = self._dist(lambda v, w1, w2: 0.5 * (1.0 if w2 == v else 0.0))
        p = eval_region_R(d, noiseless_pair())
        assert p.r1_max == pytest.approx(1.0, abs=1e-12)
        assert p.r2_max == pytest.approx(1.0, abs=1e-12)
        assert p.sum_max == pytest.approx(2.0, abs=1e-12)

    def test_binned_against_known_interference(self):
        # w1 = v2 exactly: the binning penalty cancels the clean channel bit
        d = self._dist(lambda v, w1, w2: 0.5 * (1.0 if w1 == v else 0.0))
        p = eval_region_R(d, noiseless_pair())
        assert p.r1_max == pytest.approx(0.0, abs=1e-12)

    def test_all_singletons_give_origin(self):
        d = FactoredDist("full", {
            "pu1": np.ones(1),
            "pv2": np.ones(1),
            "pw12": np.ones((1, 1, 1, 1)),
            "px1": np.array([[[[[1.0, 0.0]]]]]),
            "px2": np.array([[1.0, 0.0]]),
        })
        p = eval_region_R(d, noiseless_pair())
        assert (p.r1_max, p.r2_max, p.sum_max) == (0.0, 0.0, 0.0)

    def test_variant_and_alphabet_guards(self):
        ch = noiseless_pair()
        with pytest.raises(ValueError, match="expected a 'full'"):
            eval_region_R(_det_r2(ch), ch)
        k1 = np.eye(3)
        k2 = np.full((3, 2, 2), 0.5)
        ch3 = DmcChannel.from_kernels(k1, k2)
        d = random_dist("full", ch, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="do not match channel"):
            eval_region_R(d, ch3)


class TestEvalRegionR1:
    def test_independent_relay_free_corner(self):
        d = FactoredDist("r1", {
            "pv2": np.full(2, 0.5),
            "pw12": np.broadcast_to(np.full((2, 2), 0.25), (2, 2, 2)).copy(),
            "px1": delta_cond((2, 2, 2), 2, lambda v, a, b: a),
            "px2": delta_cond((2,), 2, lambda v: v),
        })
        p = eval_region_R1(d, noiseless_pair())
        assert p.r1_max == pytest.approx(1.0, abs=1e-12)

    def test_constants_give_origin(self):
        d = FactoredDist("r1", {
            "pv2": np.ones(1),
            "pw12": np.ones((1, 1, 1)),
            "px1": np.array([[[[1.0, 0.0]]]]),
            "px2": np.array([[1.0, 0.0]]),
        })
        p = eval_region_R1(d, noiseless_pair())
        assert (p.r1_max, p.r2_max, p.sum_max) == (0.0, 0.0, 0.0)


class TestEvalRegionR2:
    def test_superposition_corner(self):
        p = eval_region_R2(_det_r2(noiseless_pair()), noiseless_pair())
        assert p.r1_max == pytest.approx(1.0, abs=1e-12)
        assert p.r2_max == pytest.approx(1.0, abs=1e-12)
        assert p.sum_max == pytest.approx(1.0, abs=1e-12)

    def test_singleton_u1_kills_r1(self):
        d = FactoredDist("r2", {
            "pu1": np.ones(1),
            "pv2": np.full(2, 0.5),
            "px1": delta_cond((1, 2), 2, lambda u, v: v),
            "px2": delta_cond((2,), 2, lambda v: v),
        })
        p = eval_region_R2(d, noiseless_pair())
        assert p.r1_max == 0.0


class TestEvalRegionR3:
    def _dist(self, puv):
        return FactoredDist("r3", {
            "puv": puv,
            "px1": delta_cond((2, 2), 2, lambda u, v: u),
            "px2": delta_cond((2,), 2, lambda v: v),
        })

    def test_independent_auxiliaries_pay_no_penalty(self):
        p = eval_region_R3(self._dist(np.full((2, 2), 0.25)), crossover_pair())
        assert p.r1_max == pytest.approx(1.0, abs=1e-12)

    def test_identical_auxiliaries_cancel(self):
        p = eval_region_R3(self._dist(np.eye(2) * 0.5), noiseless_pair())
        assert p.r1_max == pytest.approx(0.0, abs=1e-12)
        assert not p.is_empty()

    def test_singleton_v2(self):
        d = FactoredDist("r3", {
            "puv": np.array([[0.5], [0.5]]),
            "px1": delta_cond((2, 1), 2, lambda u, v: u),
            "px2": np.array([[1.0, 0.0]]),
        })
        p = eval_region_R3(d, crossover_pair())
        assert p.r2_max == 0.0
        assert p.sum_max == pytest.approx(1.0, abs=1e-12)  # I(U1;Y2), y2 = x1 = u1


class TestEvalOuter:
    def test_u_equals_x1(self):
        d = FactoredDist("outer", {
            "puxx": delta_cond((2, 2), 2, lambda u, x2: u).transpose(0, 2, 1) * 0.25,
        })
        p = eval_outer_co2_dmc(d, noiseless_pair())
        assert p.r1_max == pytest.approx(1.0, abs=1e-12)
        assert p.r2_max == pytest.approx(1.0, abs=1e-12)
        assert p.sum_max == pytest.approx(1.0, abs=1e-12)

    def test_singleton_u(self):
        d = FactoredDist("outer", {"puxx": np.full((1, 2, 2), 0.25)})
        p = eval_outer_co2_dmc(d, noiseless_pair())
        assert p.r1_max == 0.0
        assert p.sum_max == pytest.approx(1.0, abs=1e-12)  # I(X1,X2;Y2) = H(X2)


class TestFactoredDistIntegrity:
    @pytest.mark.parametrize("variant", ["full", "r1", "r2", "r3", "outer"])
    def test_joint_normalized_and_reproduces_factors(self, variant):
        ch = noiseless_pair()
        rng = np.random.default_rng(31)
        for _ in range(5):
            d = random_dist(variant, ch, rng=rng)
            j = d.joint()
            assert abs(j.sum() - 1.0) <= 1e-9
            assert j.min() >= 0.0
            if variant == "r2":
                pu = j.sum(axis=(1, 2, 3))
                pv = j.sum(axis=(0, 2, 3))
                assert np.abs(pu - d.factors["pu1"]).max() <= 1e-9
                assert np.abs(pv - d.factors["pv2"]).max() <= 1e-9
                pvz = j.sum(axis=(0, 2))
                cond = pvz / pvz.sum(axis=1, keepdims=True)
                assert np.abs(cond - d.factors["px2"]).max() <= 1e-9
            if variant == "r3":
                assert np.abs(j.sum(axis=(2, 3)) - d.factors["puv"]).max() <= 1e-9
            if variant == "outer":
                assert np.array_equal(j, d.factors["puxx"])

    def test_factor_validation(self):
        with pytest.raises(ValueError, match="unknown variant"):
            FactoredDist("bogus", {})
        with pytest.raises(ValueError, match="sum to 1"):
            FactoredDist("r2", {
                "pu1": np.array([0.6, 0.6]),
                "pv2": np.full(2, 0.5),
                "px1": delta_cond((2, 2), 2, lambda u, v: u),
                "px2": delta_cond((2,), 2, lambda v: v),
            })
        with pytest.raises(ValueError):
            FactoredDist("r2", {"pu1": np.ones(1)})  # missing factors

    def test_memory_guard(self):
        n = 10_001  # joint would need n*n > 1e8 entries
        px1 = np.zeros((1, 1, 1, 1, n))
        px1[..., 0] = 1.0
        px2 = np.zeros((1, n))
        px2[0, 0] = 1.0
        d = FactoredDist("full", {
            "pu1": np.ones(1),
            "pv2": np.ones(1),
            "pw12": np.ones((1, 1, 1, 1)),
            "px1": px1,
            "px2": px2,
        })
        with pytest.raises(ValueError, match="entries"):
            d.joint()


#: Each variant's factorization written out by hand: the joint's einsum over
#: its factors, and the variable names its alphabet sizes are keyed by.
HAND_FACTORIZATIONS = {
    "full": ("u,v,uvab,uvabx,vz->uvabxz", ("pu1", "pv2", "pw12", "px1", "px2"),
             {"u1", "v2", "w1", "w2", "x1", "x2"}),
    "r1": ("v,vab,vabx,vz->vabxz", ("pv2", "pw12", "px1", "px2"),
           {"v2", "w1", "w2", "x1", "x2"}),
    "r2": ("u,v,uvx,vz->uvxz", ("pu1", "pv2", "px1", "px2"), {"u1", "v2", "x1", "x2"}),
    "r3": ("uv,uvx,vz->uvxz", ("puv", "px1", "px2"), {"u1", "v2", "x1", "x2"}),
    "outer": ("uxz->uxz", ("puxx",), {"u", "x1", "x2"}),
}


@pytest.mark.parametrize("variant", sorted(HAND_FACTORIZATIONS))
def test_derived_factorization_matches_hand_written(variant):
    subscripts, names, variables = HAND_FACTORIZATIONS[variant]
    k2 = np.random.default_rng(3).dirichlet(np.ones(2), size=6).reshape(2, 3, 2)
    ch = DmcChannel.from_kernels(bsc(0.1), k2)  # nx1=2, nx2=3
    d = random_dist(variant, ch, rng=np.random.default_rng(11))
    want = np.einsum(subscripts, *(d.factors[n] for n in names))
    assert np.array_equal(d.joint(), want)
    assert set(d.sizes) == variables


class TestChainRuleOracle:
    def test_chain_rule_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k1 = rng.dirichlet(np.ones(3), size=2)
            k2 = rng.dirichlet(np.ones(3), size=4).reshape(2, 2, 3)
            ch = DmcChannel.from_kernels(k1, k2)
            d = random_dist("r2", ch, rng=rng)
            j = d.joint()  # (u1, v2, x1, x2)
            juvy = np.einsum("uvxz,xzn->uvn", j, ch.k2_cube)
            nu, nv, ny = juvy.shape
            whole = mutual_information(juvy.reshape(nu * nv, ny))
            part1 = mutual_information(juvy.sum(axis=1))
            part2 = conditional_mi(juvy.transpose(1, 2, 0))
            assert abs(whole - (part1 + part2)) <= 1e-12


class TestSpecializationChain:
    def test_full_with_singleton_u1_matches_r1(self):
        rng = np.random.default_rng(13)
        ch_k1 = rng.dirichlet(np.ones(2), size=2)
        ch_k2 = rng.dirichlet(np.ones(2), size=4).reshape(2, 2, 2)
        ch = DmcChannel.from_kernels(ch_k1, ch_k2)
        for _ in range(25):
            d1 = random_dist("r1", ch, rng=rng)
            f = d1.factors
            lifted = FactoredDist("full", {
                "pu1": np.ones(1),
                "pv2": f["pv2"],
                "pw12": f["pw12"][None],
                "px1": f["px1"][None],
                "px2": f["px2"],
            })
            a = eval_region_R(lifted, ch)
            b = eval_region_R1(d1, ch)
            assert abs(a.r1_max - b.r1_max) <= 1e-12
            assert abs(a.r2_max - b.r2_max) <= 1e-12
            assert abs(a.sum_max - b.sum_max) <= 1e-12

    def test_r1_with_constant_w1_and_merged_w2_matches_r2(self):
        # pinning u1 to a singleton on the r2 side mirrors r1's missing u1
        rng = np.random.default_rng(37)
        ch_k1 = rng.dirichlet(np.ones(2), size=2)
        ch_k2 = rng.dirichlet(np.ones(2), size=4).reshape(2, 2, 2)
        ch = DmcChannel.from_kernels(ch_k1, ch_k2)
        for _ in range(25):
            nv = 3
            pv2 = rng.dirichlet(np.ones(nv))
            px1_uv = rng.dirichlet(np.ones(2), size=nv)  # p(x1|v2)
            px2 = rng.dirichlet(np.ones(2), size=nv)
            merged = FactoredDist("r1", {
                "pv2": pv2,
                # w1 constant; w2 is a verbatim copy of v2
                "pw12": delta_cond((nv, 1), nv, lambda v, a: v),
                "px1": np.broadcast_to(
                    px1_uv[:, None, None, :], (nv, 1, nv, 2)
                ).copy(),
                "px2": px2,
            })
            base = FactoredDist("r2", {
                "pu1": np.ones(1),
                "pv2": pv2,
                "px1": px1_uv[None],
                "px2": px2,
            })
            a = eval_region_R1(merged, ch)
            b = eval_region_R2(base, ch)
            assert abs(a.r1_max - b.r1_max) <= 1e-12
            assert abs(a.r2_max - b.r2_max) <= 1e-12
            assert abs(a.sum_max - b.sum_max) <= 1e-12


class TestHighInterference:
    def test_dominant_cross_channel_holds(self):
        k2 = np.zeros((2, 2, 2))
        k2[0, :, 0] = 1.0
        k2[1, :, 1] = 1.0  # y2 = x1 noiselessly
        ch = DmcChannel.from_kernels(bsc(0.2), k2)
        rep = check_high_interference(ch, n_samples=200, seed=0)
        assert rep.holds_on_samples
        assert rep.worst_margin > 0
        assert rep.witness is None

    def test_interference_free_channel_refuted(self):
        ch = noiseless_pair()  # y2 = x2 carries nothing about x1
        rep = check_high_interference(ch, n_samples=200, seed=0)
        assert not rep.holds_on_samples
        assert rep.worst_margin < 0
        assert rep.witness is not None and rep.witness.shape == (2, 2)

    def test_statistically_identical_channels_sit_on_the_fence(self):
        k1 = bsc(0.3)
        k2 = np.stack([k1, k1], axis=1)  # same law for every x2
        ch = DmcChannel.from_kernels(k1, k2)
        rep = check_high_interference(ch, n_samples=200, seed=0)
        assert abs(rep.worst_margin) <= 1e-9
        assert rep.holds_on_samples


class TestRandomSearch:
    def test_deterministic_witness_reaches_the_corner(self):
        ch = noiseless_pair()
        p = eval_region_R2(_det_r2(ch), ch)
        assert (p.r1_max, p.r2_max) == (1.0, 1.0)

    def test_sampled_hull_grows_toward_the_witness(self):
        ch = noiseless_pair()
        small = random_search_region(ch, "r2", n_samples=10, seed=0,
                                     n_directions=181)
        big = random_search_region(ch, "r2", n_samples=2000, seed=0,
                                   n_directions=181)
        # a search is the first n samples of any longer one at its seed, so
        # the sampled hull is monotone in n
        assert np.all(big.support >= small.support - 1e-12)
        assert big.support[0] >= 0.3  # still far from the witness value 1.0

    def test_single_constant_sample_returns_origin(self):
        ch = noiseless_pair()
        reg = random_search_region(ch, "r2", aux_sizes={"u1": 1, "v2": 1},
                                   n_samples=1, seed=3, n_directions=181)
        assert reg.support.max() <= 1e-12
        assert np.array_equal(reg.boundary, [[0.0, 0.0]])

    def test_fixed_seed_is_reproducible(self):
        ch = crossover_pair()
        a = random_search_region(ch, "r3", n_samples=50, seed=9, n_directions=181)
        b = random_search_region(ch, "r3", n_samples=50, seed=9, n_directions=181)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.boundary, b.boundary)
        c = random_search_region(ch, "r3", n_samples=50, seed=10, n_directions=181)
        assert not np.array_equal(a.support, c.support)

    def test_outer_search_is_labelled_an_inner_estimate(self):
        ch = noiseless_pair()
        reg = random_search_region(ch, "outer", n_samples=20, seed=0, n_directions=181)
        assert reg.provenance == "outer-search(n=20,seed=0,inner estimate of the DM outer bound)"
        reg = random_search_region(ch, "r2", n_samples=20, seed=0, n_directions=181)
        assert reg.provenance == "r2-search(n=20,seed=0)"

    def test_all_empty_samples_raise(self):
        # y1 is pure noise, so the binning penalty always wins for r3
        k1 = np.full((2, 2), 0.5)
        k2 = np.zeros((2, 2, 2))
        k2[0, :, 0] = 1.0
        k2[1, :, 1] = 1.0
        ch = DmcChannel.from_kernels(k1, k2)
        with pytest.raises(ValueError, match="EMPTY"):
            random_search_region(ch, "r3", n_samples=20, seed=0, n_directions=181)

    def test_aux_size_validation(self):
        ch = noiseless_pair()
        with pytest.raises(ValueError, match="no auxiliary"):
            random_search_region(ch, "r2", aux_sizes={"w1": 2}, n_samples=5, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            random_search_region(ch, "r2", n_samples=0, seed=0)


EVALUATE = {
    "full": eval_region_R,
    "r1": eval_region_R1,
    "r2": eval_region_R2,
    "r3": eval_region_R3,
    "outer": eval_outer_co2_dmc,
}

#: Trailing axes one distribution spans, per factor name.
DIST_AXES = {"pu1": 1, "pv2": 1, "pw12": 2, "px1": 1, "px2": 1, "puv": 2, "puxx": 3}

#: One override per auxiliary of each variant.
AUX_OVERRIDES = {
    "full": {"u1": 3, "v2": 2, "w1": 2, "w2": 1},
    "r1": {"v2": 3, "w1": 1, "w2": 4},
    "r2": {"u1": 4, "v2": 3},
    "r3": {"u1": 3, "v2": 1},
    "outer": {"u": 5},
}


def noisy_channel():
    """nx1=2, nx2=3, every kernel entry positive."""
    k2 = np.random.default_rng(3).dirichlet(np.ones(2), size=6).reshape(2, 3, 2)
    return DmcChannel.from_kernels(bsc(0.1), k2)


class TestBatchedSampling:
    @pytest.mark.parametrize("overrides", [False, True], ids=["default", "aux"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_factors_are_numpy_dirichlet_rows(self, variant, overrides):
        ch = noisy_channel()
        aux = AUX_OVERRIDES[variant] if overrides else None
        rng = np.random.default_rng(5)
        dists = [random_dist(variant, ch, aux, rng=rng) for _ in range(3)]
        ref = np.random.default_rng(5)
        _, names, _ = HAND_FACTORIZATIONS[variant]
        for d in dists:
            assert all(d.sizes[k] == v for k, v in (aux or {}).items())
            for name in names:
                shape = d.factors[name].shape
                k = math.prod(shape[len(shape) - DIST_AXES[name]:])
                want = ref.dirichlet(np.ones(k), size=math.prod(shape) // k).reshape(shape)
                assert np.array_equal(d.factors[name], want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("channel", [noisy_channel, noiseless_pair])
    def test_search_is_the_hull_of_per_sample_pentagons(self, variant, channel,
                                                         monkeypatch):
        ch = channel()
        rng = np.random.default_rng(4)
        pents = [EVALUATE[variant](random_dist(variant, ch, rng=rng), ch) for _ in range(37)]
        want = hull_of_union([p for p in pents if not p.is_empty()], 181)
        joint_entries = random_dist(variant, ch).joint().size
        for per_chunk in (None, 1, 7):
            if per_chunk is not None:
                monkeypatch.setattr(dmc, "_CHUNK_ENTRIES",
                                    per_chunk * joint_entries * max(ch.ny1, ch.ny2))
            reg = random_search_region(ch, variant, n_samples=37, seed=4,
                                       n_directions=181)
            assert np.array_equal(reg.support, want.support), per_chunk
            assert np.array_equal(reg.boundary, want.boundary), per_chunk

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("channel", [noisy_channel, noiseless_pair])
    def test_shorter_search_is_nested_in_a_longer_one(self, variant, channel):
        ch = channel()
        # 37 samples, since the binning penalty leaves every one of the first
        # ten r1 pentagons on the noisy channel EMPTY
        small = random_search_region(ch, variant, n_samples=37, seed=4, n_directions=181)
        big = random_search_region(ch, variant, n_samples=2000, seed=4, n_directions=181)
        assert np.all(small.support <= big.support)

    @pytest.mark.parametrize("per_chunk", [1, 7])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chunking_changes_no_bit(self, variant, per_chunk, monkeypatch):
        ch = noisy_channel()
        aux = AUX_OVERRIDES[variant]
        whole = random_search_region(ch, variant, aux, n_samples=37, seed=2,
                                     n_directions=181)
        joint_entries = random_dist(variant, ch, aux).joint().size
        monkeypatch.setattr(dmc, "_CHUNK_ENTRIES",
                            per_chunk * joint_entries * max(ch.ny1, ch.ny2))
        cut = random_search_region(ch, variant, aux, n_samples=37, seed=2,
                                   n_directions=181)
        assert np.array_equal(whole.support, cut.support)
        assert np.array_equal(whole.boundary, cut.boundary)

    def test_oversized_joint_refused_before_sampling(self):
        # the factors alone would need about 1e18 entries
        with pytest.raises(ValueError, match="entries"):
            random_search_region(noiseless_pair(), "full",
                                 {"u1": 10**6, "w1": 10**6, "w2": 10**6}, n_samples=3)

    @pytest.mark.parametrize("size", [10**6, 233], ids=["huge", "just-above"])
    def test_random_dist_refuses_an_oversized_joint_before_drawing(self, size,
                                                                  monkeypatch):
        # 2**3 * 233**3 entries is the first cube of this shape above the limit
        def sampled(*args):
            raise AssertionError("a factor was drawn")

        monkeypatch.setattr(dmc, "_dirichlet", sampled)
        with pytest.raises(ValueError, match="entries"):
            random_dist("full", noiseless_pair(), {"u1": size, "w1": size, "w2": size})

    @pytest.mark.parametrize("per_chunk", [None, 1, 7])
    def test_high_interference_matches_a_per_sample_loop(self, per_chunk, monkeypatch):
        # y2 sees x1 only through a strong flip, y1 sees it cleanly: refuted
        k2 = np.stack([bsc(0.4), bsc(0.4), bsc(0.45)], axis=1)
        ch = DmcChannel.from_kernels(bsc(0.05), k2)
        if per_chunk is not None:
            monkeypatch.setattr(dmc, "_CHUNK_ENTRIES", per_chunk * 6 * 2)
        rep = check_high_interference(ch, n_samples=50, seed=8)
        worst, witness = np.inf, None
        rng = np.random.default_rng(8)
        for _ in range(50):
            pxx = rng.dirichlet(np.ones(6)).reshape(2, 3)
            t_y1 = np.einsum("xz,xm->xmz", pxx, ch.k1)
            t_y2 = np.einsum("xz,xzn->xnz", pxx, ch.k2_cube)
            margin = conditional_mi(t_y2) - conditional_mi(t_y1)
            if margin < worst:
                worst, witness = margin, pxx
        assert not rep.holds_on_samples
        assert rep.worst_margin == worst
        assert np.array_equal(rep.witness, witness)


class TestSeedContract:
    @pytest.mark.parametrize("seed, error, match", [
        (-1, ValueError, "non-negative"),
        (1.0, TypeError, None),
        (None, TypeError, None),
        (np.random.default_rng(0), TypeError, None),
    ], ids=["negative-seed", "float-seed", "none-seed", "generator-seed"])
    def test_refused_before_any_sampling(self, seed, error, match, monkeypatch):
        def sampled(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(dmc, "_dirichlet", sampled)
        ch = noiseless_pair()
        with pytest.raises(error, match=match):
            random_search_region(ch, "r2", n_samples=5, seed=seed)
        with pytest.raises(error, match=match):
            check_high_interference(ch, 5, seed=seed)


#: Variable names of each variant's joint axes, then the two outputs.
JOINT_NAMES = {
    "full": ("U1", "V2", "W1", "W2", "X1", "X2"),
    "r1": ("V2", "W1", "W2", "X1", "X2"),
    "r2": ("U1", "V2", "X1", "X2"),
    "r3": ("U1", "V2", "X1", "X2"),
    "outer": ("U", "X1", "X2"),
}

#: Each variant's (r1, r2, sum) bounds, written from the paper's regions
#: with I(A, B, C) = I(A;B|C) over space-separated variable lists.
PAPER_BOUNDS = {
    "full": lambda I: (
        I("U1 W1", "Y1") - I("W1", "V2", "U1"),
        I("V2 W2", "Y2", "U1"),
        min(I("V2 W2", "Y2", "U1") + I("U1 W1", "Y1"),
            I("U1 V2 W2", "Y2") + I("W1", "Y1", "U1")) - I("W1", "V2 W2", "U1"),
    ),
    "r1": lambda I: (
        I("W1", "Y1") - I("W1", "V2"),
        I("V2 W2", "Y2"),
        I("V2 W2", "Y2") + I("W1", "Y1") - I("W1", "V2 W2"),
    ),
    "r2": lambda I: (I("U1", "Y1"), I("V2", "Y2", "U1"), I("U1 V2", "Y2")),
    "r3": lambda I: (I("U1", "Y1") - I("U1", "V2"), I("V2", "U1 Y2"), I("U1 V2", "Y2")),
    "outer": lambda I: (
        min(I("X1", "Y1", "X2"), I("U", "Y1")),
        I("X1 X2", "Y2", "U"),
        I("X1 X2", "Y2"),
    ),
}


def entropy_oracle(d, ch):
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C) from explicit marginals of
    the joint over the inputs and both outputs."""
    names = JOINT_NAMES[d.variant] + ("Y1", "Y2")
    p = np.einsum("...xz,xm,xzn->...xzmn", d.joint(), ch.k1, ch.k2_cube)

    def entropy(variables):
        q = p.sum(axis=tuple(i for i, n in enumerate(names) if n not in variables))
        q = q[q > 0.0]
        return float(-np.sum(q * np.log2(q)))

    def info(a, b, c=""):
        a, b, c = set(a.split()), set(b.split()), set(c.split())
        return entropy(a | c) + entropy(b | c) - entropy(a | b | c) - entropy(c)

    return info


@pytest.mark.parametrize("overrides", [False, True], ids=["default", "aux"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_bound_matches_an_entropy_oracle(variant, overrides):
    rng = np.random.default_rng(21)
    channels = [  # (nx1, nx2, ny1, ny2) = (2, 3, 3, 2) and (3, 2, 2, 4)
        DmcChannel.from_kernels(rng.dirichlet(np.ones(3), size=2),
                                rng.dirichlet(np.ones(2), size=6).reshape(2, 3, 2)),
        DmcChannel.from_kernels(rng.dirichlet(np.ones(2), size=3),
                                rng.dirichlet(np.ones(4), size=6).reshape(3, 2, 4)),
    ]
    aux = AUX_OVERRIDES[variant] if overrides else None
    for ch in channels:
        for _ in range(10):
            d = random_dist(variant, ch, aux, rng=rng)
            p = EVALUATE[variant](d, ch)
            want = PAPER_BOUNDS[variant](entropy_oracle(d, ch))
            got = (p.r1_max, p.r2_max, p.sum_max)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)


def _ref_mutual_information(t):
    dmc._check_table(t)
    pa = t.sum(axis=2)
    pb = t.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = t * np.log2(t / (pa[:, :, None] * pb[:, None, :]))
    return dmc._guard_mi(_ref_masked_sum(t, terms), min(t.shape[1:]))


def _ref_conditional_mi(t):
    dmc._check_table(t)
    pac = t.sum(axis=2)
    pbc = t.sum(axis=1)
    pc = pac.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = t * np.log2(
            t * pc[:, None, None, :] / (pac[:, :, None, :] * pbc[:, None, :, :])
        )
    return dmc._guard_mi(_ref_masked_sum(t, terms), min(t.shape[1], t.shape[2]))


def _ref_masked_sum(t, terms):
    return np.where(t > 0.0, terms, 0.0).reshape(len(t), -1).sum(axis=1)


def _ref_table(joint, groups):
    keep = [ax for g in groups for ax in g]
    other = tuple(i + 1 for i in range(joint.ndim - 1) if i not in keep)
    t = joint.sum(axis=other) if other else joint
    order = {ax: i + 1 for i, ax in enumerate(sorted(keep))}
    t = np.transpose(t, [0] + [order[ax] for ax in keep])
    return t.reshape([len(t)] + [math.prod(joint.shape[ax + 1] for ax in g) for g in groups])


def _ref_evaluate(joints, letters, bounds, ch):
    """The bound strings parsed and every derived table checked on each call,
    the reference for the cached plan."""
    alts = [[alt.split() for alt in bound.split(",")] for bound in bounds]
    infos = dict.fromkeys(t for bound in alts for alt in bound for t in alt[::2])
    named = set("".join(infos))
    aux = "".join(c for c in letters if c not in "xz")
    kept = "".join(c for c in letters if c in aux or c in named)
    tables = {}
    for t in infos:
        out = "m" if "m" in t else "n" if "n" in t else ""
        axes = kept + out if out else aux
        if out not in tables:
            tables[out] = (
                np.einsum(f"s{letters},xm->s{axes}", joints, ch.k1) if out == "m"
                else np.einsum(f"s{letters},xzn->s{axes}", joints, ch.k2_cube) if out == "n"
                else joints.sum(axis=tuple(1 + letters.index(c) for c in "xz"))
            )
        groups = [tuple(axes.index(c) for c in g) for g in t.replace("|", ";").split(";")]
        mi = _ref_mutual_information if len(groups) == 2 else _ref_conditional_mi
        infos[t] = mi(_ref_table(tables[out], groups))
    result = []
    for bound in alts:
        sums = []
        for alt in bound:
            acc = infos[alt[0]]
            for sign, t in zip(alt[1::2], alt[2::2]):
                acc = acc + infos[t] if sign == "+" else acc - infos[t]
            sums.append(acc)
        result.append(functools.reduce(np.minimum, sums))
    return result


def _with_zeros(factors):
    """The factors with each entry below half its row's largest set to 0,
    rows renormalized; the largest entry stays, so every row keeps mass."""
    out = {}
    for name, f in factors.items():
        rows = f.reshape(len(f), -1, math.prod(f.shape[f.ndim - DIST_AXES[name]:]))
        rows = np.where(rows < 0.5 * rows.max(axis=-1, keepdims=True), 0.0, rows)
        out[name] = (rows / rows.sum(axis=-1, keepdims=True)).reshape(f.shape)
    return out


class TestEvaluatePlan:
    @pytest.mark.parametrize("zeros", [False, True], ids=["dense", "zeros"])
    @pytest.mark.parametrize("n", [1, 53])
    @pytest.mark.parametrize("overrides", [False, True], ids=["default", "aux"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bounds_equal_the_per_call_reference(self, variant, overrides, n, zeros):
        rng = np.random.default_rng(6)
        aux = AUX_OVERRIDES[variant] if overrides else None
        for ch in (noisy_channel(), noiseless_pair(), crossover_pair()):
            sizes = dmc._alphabet_sizes(variant, ch, aux)
            factors = dmc._sample_factors(variant, sizes, rng, n)
            if zeros:
                factors = _with_zeros(factors)
            args = (dmc._joints(variant, factors), dmc._JOINT_AXES[variant],
                    dmc._BOUNDS[variant], ch)
            got, want = dmc._evaluate(*args), _ref_evaluate(*args)
            assert len(got) == len(want) == 3
            for g, w in zip(got, want):
                assert g.shape == (n,)
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("zeros", [False, True], ids=["dense", "zeros"])
    @pytest.mark.parametrize("n", [1, 53])
    def test_margin_equals_the_per_call_reference(self, n, zeros):
        rng = np.random.default_rng(8)
        for ch in (noisy_channel(), noiseless_pair(), crossover_pair()):
            (pxx,) = dmc._dirichlet(rng, n, [((ch.nx1, ch.nx2), 2)])
            if zeros:
                pxx = _with_zeros({"puv": pxx})["puv"]
            (got,) = dmc._evaluate(pxx, "xz", dmc._MARGIN, ch)
            (want,) = _ref_evaluate(pxx, "xz", dmc._MARGIN, ch)
            assert np.array_equal(got, want)

    def test_the_plan_is_built_once_per_letters_and_bounds(self):
        plan = dmc._plan(dmc._JOINT_AXES["full"], dmc._BOUNDS["full"])
        assert dmc._plan(dmc._JOINT_AXES["full"], dmc._BOUNDS["full"]) is plan
        # the sum bound names vb;n|u, ua;m and a;bv|u again: nine named, six
        # computed
        assert len(plan.infos) == 6
        assert [out for out, _ in plan.tables] == ["m", "", "n"]


class TestValidationWhereDataEnters:
    def _count_checks(self, monkeypatch):
        checked = []
        check = dmc._check_table
        monkeypatch.setattr(dmc, "_check_table", lambda t: checked.append(t.shape) or check(t))
        return checked

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_chunk_of_joints_is_checked_once(self, variant, monkeypatch):
        ch = noisy_channel()
        joint_entries = random_dist(variant, ch).joint().size
        monkeypatch.setattr(dmc, "_CHUNK_ENTRIES", 7 * joint_entries * max(ch.ny1, ch.ny2))
        checked = self._count_checks(monkeypatch)
        random_search_region(ch, variant, n_samples=37, seed=4, n_directions=181)
        assert [shape[0] for shape in checked] == [7, 7, 7, 7, 7, 2]
        assert {shape[1:] for shape in checked} == {random_dist(variant, ch).joint().shape}

    def test_high_interference_checks_each_chunk_once(self, monkeypatch):
        ch = noisy_channel()
        monkeypatch.setattr(dmc, "_CHUNK_ENTRIES", 10 * 6 * 2)
        checked = self._count_checks(monkeypatch)
        check_high_interference(ch, 25, seed=1)
        assert checked == [(10, 2, 3), (10, 2, 3), (5, 2, 3)]

    @pytest.mark.parametrize("spoil, match", [
        (lambda j: np.where(np.arange(j.size).reshape(j.shape) == 5, np.nan, j),
         "finite and >= 0"),
        (lambda j: j * 1.01, "sums to"),
    ], ids=["nan", "not-stochastic"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_bad_joint_is_refused(self, variant, spoil, match, monkeypatch):
        joints = dmc._joints
        monkeypatch.setattr(dmc, "_joints", lambda v, f: spoil(joints(v, f)))
        with pytest.raises(ValueError, match=match):
            random_search_region(noisy_channel(), variant, n_samples=5, seed=0)

    @pytest.mark.parametrize("spoil, match", [
        (lambda p: -p, "finite and >= 0"),
        (lambda p: p * 0.5, "sums to"),
    ], ids=["negative", "not-stochastic"])
    def test_high_interference_refuses_a_bad_draw(self, spoil, match, monkeypatch):
        draw = dmc._dirichlet
        monkeypatch.setattr(dmc, "_dirichlet", lambda *args: [spoil(a) for a in draw(*args)])
        with pytest.raises(ValueError, match=match):
            check_high_interference(noisy_channel(), 5, seed=0)

    @pytest.mark.parametrize("table, match", [
        (np.full((2, 2, 2), 0.1), "sums to"),
        (np.full((2, 2, 2), np.nan), "finite and >= 0"),
        (np.array([[[0.5, -0.25], [0.25, 0.5]], [[0.0, 0.0], [0.0, 0.0]]]),
         "finite and >= 0"),
        (np.full((2, 2), 0.25), "3-D"),
    ], ids=["sum", "nan", "negative", "2-D"])
    def test_conditional_mi_refuses_a_bad_table(self, table, match):
        with pytest.raises(ValueError, match=match):
            conditional_mi(table)

    def test_mutual_information_refuses_nan(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            mutual_information(np.array([[0.5, np.nan], [0.25, 0.25]]))

    def test_the_guard_refuses_nan(self):
        for mi in (np.array([0.5, np.nan]), np.array([np.nan])):
            with pytest.raises(FloatingPointError, match="NaN"):
                dmc._guard_mi(mi, 2)
        with pytest.raises(FloatingPointError, match="negative"):
            dmc._guard_mi(np.array([0.5, -1e-9]), 2)
        with pytest.raises(FloatingPointError, match="exceeds"):
            dmc._guard_mi(np.array([1.5]), 2)
        assert dmc._guard_mi(np.array([-1e-13, 1.0]), 2).tolist() == [0.0, 1.0]

    def test_underflowing_products_are_taken_in_logs(self):
        # every product of the c = 0 entries and marginals underflows to
        # 0, so the ratio of the terms is 0/0; I(A;B|C) is 1 bit at c = 1
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = t[1, 1, 0] = 5e-324
        t[0, 1, 1] = t[1, 0, 1] = 0.5
        assert conditional_mi(t) == 1.0
        # pa * pb underflows to 0 at the small entries, and t / 0 is inf
        small = np.array([[1e-170, 1e-170], [1e-170, 1.0 - 3e-170]])
        assert 0.0 <= mutual_information(small) <= 1e-160
        # only the samples whose sum is not finite are taken again
        batch = np.stack([t, np.full((2, 2, 2), 0.125)])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert dmc._conditional_mi(batch).tolist() == [1.0, 0.0]

    def test_factored_dist_refuses_a_nan_factor(self):
        with pytest.raises(ValueError, match="pv2 entries must be finite and >= 0"):
            FactoredDist("r2", {
                "pu1": np.full(2, 0.5),
                "pv2": np.array([np.nan, 0.5]),
                "px1": delta_cond((2, 2), 2, lambda u, v: u),
                "px2": delta_cond((2,), 2, lambda v: v),
            })
