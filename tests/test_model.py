"""Core data types: channels, rate pairs, pentagons."""

import math

import numpy as np
import pytest

from cograte.model import ChannelParams, Pentagon, RatePair


def test_channel_params_basic():
    ch = ChannelParams(p1=6.0, p2=6.0, b=2.0)
    assert ch.p1 == 6.0 and ch.p2 == 6.0 and ch.b == 2.0


@pytest.mark.parametrize("kwargs", [
    {"p1": -1.0, "p2": 6.0, "b": 2.0},
    {"p1": 6.0, "p2": -0.5, "b": 2.0},
    {"p1": 6.0, "p2": 6.0, "b": -2.0},
    {"p1": float("nan"), "p2": 6.0, "b": 2.0},
    {"p1": 6.0, "p2": float("inf"), "b": 2.0},
    # the received power overflows in g's closed forms
    {"p1": 1e160, "p2": 1.0, "b": 1e80},
])
def test_channel_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ChannelParams(**kwargs)


def test_channel_params_store_a_signed_zero_as_zero():
    ch = ChannelParams(-0.0, -0.0, -0.0)
    assert [math.copysign(1.0, v) for v in (ch.p1, ch.p2, ch.b)] == [1.0, 1.0, 1.0]
    assert ch == ChannelParams(0.0, 0.0, 0.0)


def test_rate_pair_validation():
    pt = RatePair(0.5, 0.25)
    assert pt.r1 == 0.5 and pt.r2 == 0.25
    with pytest.raises(ValueError):
        RatePair(float("nan"), 0.0)
    with pytest.raises(ValueError):
        RatePair(0.0, float("-inf"))
    # rates live in the closed nonnegative quadrant
    with pytest.raises(ValueError):
        RatePair(-0.01, 0.5)


class TestPentagon:
    def test_contains_interior_and_exterior(self):
        p = Pentagon(1.0, 1.0, 1.5)
        assert p.contains(RatePair(0.7, 0.7))
        assert not p.contains(RatePair(0.8, 0.8))  # sum 1.6 > 1.5

    def test_contains_with_tolerance(self):
        p = Pentagon(1.0, 1.0, 1.5)
        assert not p.contains(RatePair(0.76, 0.76))
        assert p.contains(RatePair(0.76, 0.76), tol=0.05)
        with pytest.raises(ValueError, match="tol"):
            p.contains(RatePair(0.1, 0.1), tol=-0.01)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_contains_refuses_a_tolerance_that_is_not_finite_and_nonnegative(self, tol):
        # a NaN slack made every comparison fail: "not contained"
        with pytest.raises(ValueError, match="tol must be"):
            Pentagon(1.0, 1.0, 1.5).contains(RatePair(0.1, 0.1), tol=tol)

    def test_empty_iff_any_bound_negative(self):
        assert Pentagon(-0.2, 1.0, 1.5).is_empty()
        assert Pentagon(1.0, -1e-12, 1.5).is_empty()
        assert Pentagon(1.0, 1.0, -0.1).is_empty()
        # the all-zero pentagon is the single point at the origin, not empty
        assert not Pentagon(0.0, 0.0, 0.0).is_empty()
        assert Pentagon(0.0, 0.0, 0.0).contains(RatePair(0.0, 0.0))

    def test_empty_contains_nothing(self):
        p = Pentagon(-0.2, 1.0, 1.5)
        assert not p.contains(RatePair(0.0, 0.0))
        assert not p.contains(RatePair(0.0, 0.0), tol=0.1)

    def test_membership_is_monotone(self):
        # shrinking either coordinate of a member keeps it a member
        rng = np.random.default_rng(11)
        p = Pentagon(1.0, 1.0, 1.5)
        for _ in range(200):
            x, y = rng.uniform(0.0, 1.2, size=2)
            if not p.contains(RatePair(x, y)):
                continue
            fx, fy = rng.uniform(0.0, 1.0, size=2)
            assert p.contains(RatePair(fx * x, fy * y))

    def test_vertices_pentagon(self):
        got = set(Pentagon(1.0, 1.0, 1.5).vertices())
        assert got == {(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 1.0)}

    def test_vertices_rectangle_when_sum_slack(self):
        got = set(Pentagon(1.0, 1.0, 3.0).vertices())
        assert got == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_vertices_clipped_by_sum(self):
        got = set(Pentagon(2.0, 1.0, 1.5).vertices())
        assert got == {(0.0, 0.0), (1.5, 0.0), (0.5, 1.0), (0.0, 1.0)}

    def test_vertices_of_empty_raise(self):
        with pytest.raises(ValueError, match="empty"):
            Pentagon(-0.2, 1.0, 1.5).vertices()

    def test_vertices_satisfy_all_constraints(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a, b = rng.uniform(0.0, 3.0, size=2)
            c = rng.uniform(0.0, a + b + 1.0)
            p = Pentagon(a, b, c)
            for vx, vy in p.vertices():
                assert p.contains(RatePair(vx, vy), tol=1e-9)
