"""Finite-alphabet regions: exact mutual-information evaluation, the four
achievable-region variants, the outer bound, and randomized search."""

import math

import numpy as np
import pytest

from cograte.dmc import (
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
        # nested per-sample streams make the sampled hull monotone in n
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
