"""Compact convex sets: support, argmax, distance, projection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import Ball, Capsule, NormTag, Polytope, interval, singleton

SQUARE = Polytope(vertices=np.array([[1.0, 1.0], [1.0, -1.0],
                                     [-1.0, 1.0], [-1.0, -1.0]]))


def vec2():
    return arrays(np.float64, (2,),
                  elements=st.floats(-50.0, 50.0, allow_nan=False))


class TestSupport:
    def test_square_vertex_max(self):
        assert SQUARE.support(np.array([1.0, 2.0])) == 3.0

    def test_zero_direction(self):
        assert SQUARE.support(np.zeros(2)) == 0.0
        assert Ball(center=np.zeros(2), radius=2.0).support(np.zeros(2)) == 0.0

    def test_linf_ball_support_is_l1_norm(self):
        # cross-checked against a dense grid over the ball
        ball = Ball(center=np.zeros(2), radius=1.0, norm=NormTag.LINF)
        y = np.array([2.0, -1.0])
        assert ball.support(y) == pytest.approx(3.0)
        grid = np.linspace(-1.0, 1.0, 81)
        brute = max(float(np.array([a, b]) @ y) for a in grid for b in grid)
        assert ball.support(y) == pytest.approx(brute, abs=1e-9)

    @given(y=vec2(), lam=st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_homogeneity(self, y, lam):
        for s in (SQUARE, Ball(center=np.array([0.5, -0.5]), radius=2.0)):
            lhs = s.support(lam * y)
            rhs = lam * s.support(y)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


class TestArgmaxSupport:
    def test_square_unique(self):
        assert np.array_equal(SQUARE.argmax_support(np.array([1.0, 2.0])),
                              np.array([1.0, 1.0]))

    def test_square_tie_breaks_lexicographically(self):
        v = SQUARE.argmax_support(np.array([1.0, 0.0]))
        assert np.array_equal(v, np.array([1.0, -1.0]))

    def test_singleton(self):
        s = singleton(np.array([2.0, 3.0]))
        for y in (np.array([1.0, 0.0]), np.array([-5.0, 2.0])):
            assert np.array_equal(s.argmax_support(y), np.array([2.0, 3.0]))

    def test_ball_tiny_direction_stays_on_sphere(self):
        # squares of these entries underflow to subnormals
        y = np.array([4.66362767e-160, 4.66362767e-160])
        for s in (Ball(center=np.zeros(2), radius=1.5),
                  Capsule(a=np.array([-1.0, 0.0]), b=np.array([1.0, 0.0]),
                          radius=0.5)):
            assert s.contains(s.argmax_support(y), tol=1e-12)

    @given(y=vec2())
    @settings(max_examples=150, deadline=None)
    def test_argmax_is_member_and_attains(self, y):
        for s in (SQUARE,
                  Ball(center=np.zeros(2), radius=1.5),
                  Ball(center=np.zeros(2), radius=1.0, norm=NormTag.L1),
                  Ball(center=np.zeros(2), radius=1.0, norm=NormTag.LINF),
                  Capsule(a=np.array([-1.0, 0.0]), b=np.array([1.0, 0.0]),
                          radius=0.5)):
            v = s.argmax_support(y)
            assert s.contains(v, tol=1e-8)
            assert float(v @ y) == pytest.approx(s.support(y), abs=1e-10)


class TestDist:
    def test_square_outside(self):
        assert SQUARE.dist(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_inside_is_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(-1.0, 1.0, size=2)
            assert SQUARE.dist(y) <= 1e-9

    def test_singleton_reduces_to_norm(self):
        s = singleton(np.array([1.0, 2.0]))
        y = np.array([4.0, 6.0])
        assert s.dist(y) == pytest.approx(5.0)
        assert s.dist(y, NormTag.L1) == pytest.approx(7.0)
        assert s.dist(y, NormTag.LINF) == pytest.approx(4.0)

    def test_l1_distance_bound_is_tight_on_square(self):
        # true l1 distance to the square from (2, 0) is 1
        assert SQUARE.dist(np.array([2.0, 0.0]), NormTag.L1) == pytest.approx(
            1.0, abs=1e-6)


class TestProject:
    def test_square_clamp(self):
        assert np.allclose(SQUARE.project(np.array([2.0, 0.0])),
                           np.array([1.0, 0.0]), atol=1e-9)

    def test_idempotent_inside(self):
        y = np.array([0.3, -0.8])
        assert np.allclose(SQUARE.project(y), y, atol=1e-9)

    def test_interval_clamp(self):
        iv = interval(0.2, 0.4)
        assert iv.project(np.array([1.0]))[0] == pytest.approx(0.4)

    def test_ball_projections_exact(self):
        for tag in (NormTag.L1, NormTag.L2, NormTag.LINF):
            b = Ball(center=np.array([1.0, 0.0]), radius=1.0, norm=tag)
            p = b.project(np.array([4.0, 0.0]))
            assert b.contains(p, tol=1e-9)
            assert np.allclose(p, np.array([2.0, 0.0]), atol=1e-9)

    @given(y=vec2())
    @settings(max_examples=100, deadline=None)
    def test_projection_is_idempotent(self, y):
        p = SQUARE.project(y)
        assert np.allclose(SQUARE.project(p), p, atol=1e-7)


class TestSupportAgainstDescentMaximization:
    def test_polytope_support_matches_projected_gradient(self):
        rng = np.random.default_rng(0)
        P = Polytope(vertices=rng.uniform(-2, 2, size=(6, 2)))
        for _ in range(20):
            y = rng.normal(size=2)
            # maximize <z, y> over the polytope by projected ascent with
            # geometrically growing steps (the objective is linear, so
            # the support gap shrinks like diam^2 / step)
            z = P.project(np.zeros(2))
            for t in 4.0 ** np.arange(18):
                z = P.project(z + t * y)
            assert float(z @ y) == pytest.approx(P.support(y), abs=1e-8)


class TestCapsule:
    def test_support_is_segment_plus_ball(self):
        c = Capsule(a=np.array([0.0, 0.0]), b=np.array([2.0, 0.0]),
                    radius=1.0)
        y = np.array([1.0, 1.0])
        assert c.support(y) == pytest.approx(2.0 + np.sqrt(2.0))

    def test_contains_fattened_points(self):
        c = Capsule(a=np.array([0.0, 0.0]), b=np.array([2.0, 0.0]),
                    radius=0.5)
        assert c.contains(np.array([1.0, 0.45]))
        assert not c.contains(np.array([1.0, 0.6]))

    def test_project_l2(self):
        c = Capsule(a=np.array([0.0, 0.0]), b=np.array([2.0, 0.0]),
                    radius=0.5)
        p = c.project(np.array([1.0, 2.0]))
        assert np.allclose(p, np.array([1.0, 0.5]), atol=1e-9)


class TestInterior:
    def test_ball_interior_strict(self):
        b = Ball(center=np.zeros(2), radius=1.0)
        assert b.interior_contains(np.array([0.5, 0.0]))
        assert not b.interior_contains(np.array([1.0, 0.0]))

    def test_polytope_interior(self):
        assert SQUARE.interior_contains(np.array([0.0, 0.0]))
        assert not SQUARE.interior_contains(np.array([1.0, 0.0]))

    def test_polytope_needs_vertices(self):
        with pytest.raises(ValueError):
            Polytope(vertices=np.empty((0, 2)))
