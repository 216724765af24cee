"""Compact convex sets: support, argmax, distance, projection."""

import contextlib
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import (Ball, Capsule, DualPair, FiniteGraph, NormFn,
                          NormTag, PairedPoint, Polytope, Subdifferential,
                          box, interval, singleton)
from monotone_lab import quasidensity, sets as sets_module
from monotone_lab import solvers as solvers_module
from monotone_lab.cli import main
from monotone_lab.harness import run_scenario
from monotone_lab.solvers import linprog, nearest_hull_point
from monotone_lab.spaces import vector_norm

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

    def test_l1_ball_tie_rule(self):
        # the lexicographically smallest maximizer: -e_i at the first
        # negative max-abs index, else +e_i at the last max-abs index
        ball = Ball(center=np.zeros(2), radius=1.0, norm=NormTag.L1)
        cases = {(-1.0, -1.0): (-1.0, 0.0), (1.0, 1.0): (0.0, 1.0),
                 (1.0, -1.0): (0.0, -1.0)}
        for y, expected in cases.items():
            assert np.array_equal(ball.argmax_support(np.array(y)),
                                  np.array(expected)), y

    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.L2, NormTag.LINF])
    def test_nan_direction_gives_a_nan_vector(self, norm):
        ball = Ball(center=np.array([1.0, -1.0]), radius=2.0, norm=norm)
        for y in ([np.nan, 1.0], [0.0, np.nan], [np.nan, np.nan]):
            assert np.isnan(ball.argmax_support(np.array(y))).all()
            assert np.isnan(ball.support(np.array(y)))

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("norm, d", [(NormTag.L1, 2e300),
                                         (NormTag.LINF, 1e300)])
    def test_a_far_point_starts_wolfe_without_overflow(self, norm, d):
        # the squares of y - V overflow past 1e154, so Wolfe's start
        # compares the rows scaled by a power of two
        hull = Polytope(np.array([[0.0, 0.0], [2.0, 0.5], [0.5, 2.0]]))
        assert hull.dist(np.array([1e300, -1e300]), norm) == d


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


def _capsule_dist_reference(c, y, norm):
    """The bracket that evaluates both inner points at every step."""
    z, d = y - c.a, c.b - c.a
    ball = Ball(center=np.zeros(c.dim), radius=c.radius)

    def phi(t):
        return ball._dist(z - t * d, norm)

    gold = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi, best = 0.0, 1.0, min(phi(0.0), phi(1.0))
    while True:
        t1, t2 = hi - gold * (hi - lo), lo + gold * (hi - lo)
        if not lo < t1 < t2 < hi or np.array_equal(z - t1 * d, z - t2 * d):
            return best
        f1, f2 = phi(t1), phi(t2)
        best = min(best, f1, f2)
        if f1 <= f2:
            hi = t2
        if f2 <= f1:
            lo = t1


class TestCapsuleBracket:
    """An l2 capsule's l1/linf distance keeps the value of the inner
    point that survives each golden-section step."""

    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.LINF])
    def test_each_step_evaluates_one_new_point(self, monkeypatch, norm):
        calls = []
        real = Ball._dist
        monkeypatch.setattr(Ball, "_dist", lambda self, y, nm:
                            calls.append(1) or real(self, y, nm))
        rng = np.random.default_rng(8)
        new = old = 0
        for _ in range(100):
            d = int(rng.integers(2, 5))
            c = Capsule(a=rng.uniform(-2.0, 2.0, d),
                        b=rng.uniform(-2.0, 2.0, d),
                        radius=float(rng.uniform(0.05, 1.5)))
            y = rng.uniform(-4.0, 4.0, d)
            calls.clear()
            got = c.dist(y, norm)
            n_new = len(calls)
            calls.clear()
            ref = _capsule_dist_reference(c, y, norm)
            assert got == pytest.approx(ref, rel=1e-15, abs=0.0)
            # the two ends, then one point a step (two after a tie)
            assert n_new <= len(calls)
            new, old = new + n_new, old + len(calls)
        assert new <= 0.6 * old


class TestPolyhedralCapsule:
    """A capsule fattened by an l1 or linf ball is the polytope
    conv({a, b} + ball vertices) and projects as that polytope."""

    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.LINF])
    def test_projection_is_wolfe_on_the_hull_and_idempotent(self, norm):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            a, b = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
            r = float(rng.uniform(0.0, 1.0))
            c = Capsule(a=a, b=b, radius=r, norm=norm)
            ball = (np.vstack([r * np.eye(n), -r * np.eye(n)])
                    if norm is NormTag.L1 else
                    r * np.array(list(itertools.product((-1.0, 1.0),
                                                        repeat=n))))
            V = np.vstack([a + ball, b + ball])
            for y in rng.uniform(-3.0, 3.0, (5, n)):
                p = c.project(y)
                assert np.allclose(p, nearest_hull_point(V, y), rtol=0.0,
                                   atol=1e-9)
                assert c.dist(p) <= 1e-12 and c.contains(p)

    def test_point_capsule_fuzz_gap_is_fast(self):
        # a = b, radius 0: a single point, so a box whose l1/linf
        # distances come from the clip, with no descent
        K = Capsule(a=np.zeros(2), b=np.zeros(2), radius=0.0,
                    norm=NormTag.LINF)
        assert K._is_box()
        S = Subdifferential(pair=DualPair(2, NormTag.L1),
                            f=NormFn(2, 1.0, NormTag.L1))
        t0 = time.perf_counter()
        rep = quasidensity.fuzzy_gap_dual(S, np.array([0.3, -0.2]), K)
        assert time.perf_counter() - t0 < 0.1
        assert (rep.status, rep.method) == ("upper_bound", "fuzzy_search")
        assert rep.value == pytest.approx(0.0017272006919786809, rel=1e-12)


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

    @pytest.mark.parametrize("a, b", [([0.0, 0.0], [1.0]), ([0.0], [1.0, 0.0])])
    def test_capsule_ends_of_two_sizes_rejected(self, a, b):
        with pytest.raises(ValueError, match="capsule ends have shapes"):
            Capsule(a=np.array(a), b=np.array(b))


def scale_of(V: np.ndarray, y: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(V))), float(np.max(np.abs(y))))


@st.composite
def box_vertices_and_point(draw):
    """A box in 1-4 D as a vertex list: its corners shuffled, some of
    them repeated, points inside it added, and some sides of width 0
    (whose corners then coincide)."""
    d = draw(st.integers(1, 4))
    lo = draw(arrays(np.float64, (d,),
                     elements=st.floats(-100.0, 100.0, allow_nan=False)))
    width = draw(arrays(np.float64, (d,), elements=st.one_of(
        st.just(0.0), st.floats(0.0, 50.0))))
    hi = lo + width
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    repeats = draw(st.lists(st.integers(0, len(corners) - 1), max_size=4))
    t = draw(arrays(np.float64, (draw(st.integers(0, 4)), d),
                    elements=st.floats(0.0, 1.0)))
    inside = np.clip(lo + t * (hi - lo), lo, hi)
    V = np.vstack([corners, corners[repeats], inside])
    V = V[draw(st.permutations(list(range(len(V)))))]
    y = draw(arrays(np.float64, (d,),
                    elements=st.floats(-300.0, 300.0, allow_nan=False)))
    return V, lo, hi, y


# hulls that are not their bounding box, so a clip would leave them
NON_BOXES = {
    "square missing a corner": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    "square with a cut corner": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                 [1.0, 0.5], [0.5, 1.0]],
    "rotated square": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
    "triangle": [[0.0, 0.0], [2.0, 0.5], [0.5, 1.5]],
    "box plus an outside vertex": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                   [1.0, 1.0], [2.0, 0.5]],
}


class TestBoxProjection:
    @given(case=box_vertices_and_point())
    @settings(max_examples=200, deadline=None)
    def test_box_projects_by_a_clip(self, case):
        V, lo, hi, y = case
        p = Polytope(vertices=V).project(y)
        assert np.array_equal(p, np.clip(y, lo, hi))
        # Wolfe's algorithm stays the reference
        ref = nearest_hull_point(V, y)
        assert np.max(np.abs(p - ref)) <= 1e-9 * scale_of(V, y)

    @pytest.mark.parametrize("name", sorted(NON_BOXES))
    @given(y=vec2())
    @example(y=np.array([3.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_non_box_projection_meets_the_variational_inequality(
            self, name, y):
        V = np.array(NON_BOXES[name])
        p = Polytope(vertices=V).project(y)
        scale = scale_of(V, y)
        # p is the projection iff it lies in the hull and
        # <v - p, y - p> <= 0 for every vertex v
        assert np.max(np.abs(nearest_hull_point(V, p) - p)) <= 1e-9 * scale
        assert np.max((V - p) @ (y - p)) <= 1e-9 * scale ** 2

    @pytest.mark.parametrize("name", sorted(NON_BOXES))
    def test_non_box_is_not_clipped(self, name):
        V = np.array(NON_BOXES[name])
        y = np.array([3.0, 3.0])  # its clip to the bounding box is outside
        p = Polytope(vertices=V).project(y)
        assert not np.array_equal(p, np.clip(y, V.min(axis=0),
                                              V.max(axis=0)))


def _box_bounds_reference(V):
    """The bounding-box rule with ``np.unique``: conv(V) is its bounding
    box when V holds all 2**k corners coded by the sides at hi."""
    lo, hi = V.min(axis=0), V.max(axis=0)
    free = lo < hi
    k = int(np.count_nonzero(free))
    if 2**k > len(V):
        return None
    at_hi = V[:, free] == hi[free]
    corner = np.all(at_hi | (V[:, free] == lo[free]), axis=1)
    codes = at_hi[corner] @ (1 << np.arange(k))
    return (lo, hi) if np.unique(codes).size == 2**k else None


@st.composite
def vertex_lists(draw):
    """Corners of a box in 1-5 D with sides of width 0 among them, some
    dropped or repeated, points inside added, and entries set to NaN or
    +-inf, shuffled."""
    d = draw(st.integers(1, 5))
    lo = draw(arrays(np.float64, (d,), elements=st.sampled_from(
        [-2.0, -1.0, 0.0, 1.0])))
    hi = lo + draw(arrays(np.float64, (d,), elements=st.sampled_from(
        [0.0, 0.5, 1.0, 3.0])))
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    keep = draw(st.lists(st.booleans(), min_size=len(corners),
                         max_size=len(corners)))
    if draw(st.booleans()):
        corners = corners[np.array(keep, dtype=bool)]
    repeats = draw(st.lists(st.integers(0, max(len(corners) - 1, 0)),
                            max_size=3)) if len(corners) else []
    t = draw(arrays(np.float64, (draw(st.integers(0, 3)), d),
                    elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    V = np.vstack([corners, corners[repeats], lo + t * (hi - lo)])
    if not len(V):
        V = lo[None]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(V) - 1))
        j = draw(st.integers(0, d - 1))
        V[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return V[draw(st.permutations(list(range(len(V)))))]


class TestBoxDetection:
    @given(V=vertex_lists())
    @example(V=np.array([[np.nan, 0.0], [1.0, 0.0], [1.0, 1.0],
                         [np.nan, 1.0]]))
    @example(V=np.array([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0],
                         [np.inf, 1.0]]))
    @example(V=np.array([[0.0, -np.inf], [0.0, np.inf]]))
    @example(V=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    @settings(max_examples=400, deadline=None)
    def test_bounding_box_rule_is_the_unique_codes_rule(self, V):
        got, ref = sets_module._box_bounds(V), _box_bounds_reference(V)
        assert (got is None) == (ref is None), V
        if ref is not None:
            for a, b in zip(got, ref):
                assert a.tobytes() == b.tobytes()

    def test_flag_is_decided_at_the_first_read(self, monkeypatch):
        calls = []
        real = sets_module._box_bounds
        monkeypatch.setattr(sets_module, "_box_bounds",
                            lambda V: calls.append(1) or real(V))
        s = Polytope(vertices=SQUARE.vertices)
        assert calls == []
        assert s._is_box() and s._is_box()
        assert calls == [1]


def _refuse(*args, **kwargs):
    raise AssertionError("an exact distance ran the subgradient descent")


@contextlib.contextmanager
def no_descent():
    """Context in which any call of the subgradient descent fails."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers_module, "subgradient_descent", _refuse)
        yield


def interval_dist(y, lo, hi):
    """Per-coordinate distances from y to [lo, hi]."""
    return np.maximum(np.maximum(lo - y, y - hi), 0.0)


class TestExactDistances:
    @given(d=st.integers(2, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_box_distance_is_separable(self, d, data):
        coord = st.floats(-50.0, 50.0, allow_nan=False)
        lo = data.draw(arrays(np.float64, (d,), elements=coord))
        width = data.draw(arrays(np.float64, (d,), elements=st.one_of(
            st.just(0.0), st.floats(0.0, 20.0))))
        hi = lo + width
        y = data.draw(arrays(np.float64, (d,), elements=coord))
        per = interval_dist(y, lo, hi)
        with no_descent():
            P = box(lo, hi)
            assert P.dist(y, NormTag.L1) == np.sum(per)
            assert P.dist(y, NormTag.LINF) == np.max(per)
            # a linf ball is a box too
            c, r = data.draw(coord), data.draw(st.floats(0.0, 20.0))
            ball = Ball(center=np.full(d, c), radius=r, norm=NormTag.LINF)
            per = interval_dist(y, c - r, c + r)
            assert ball.dist(y, NormTag.L1) == pytest.approx(
                np.sum(per), rel=1e-12, abs=1e-12)

    @given(y=st.floats(-50.0, 50.0, allow_nan=False),
           c=st.floats(-5.0, 5.0), r=st.floats(0.0, 5.0),
           t=st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_one_dimensional_distance_is_the_projection_gap(self, y, c, r, t):
        y = np.array([y])
        sets = [Ball(center=[c], radius=r, norm=tag) for tag in NormTag]
        sets += [Capsule(a=[c], b=[t], radius=r, norm=tag) for tag in NormTag]
        sets += [interval(min(c, t), max(c, t)),
                 Polytope(vertices=[[c], [t], [0.5 * (c + t)], [c]])]
        with no_descent():
            for s in sets:
                gap = abs(float(y[0] - s.project(y)[0]))
                for tag in (NormTag.L1, NormTag.LINF):
                    if isinstance(s, Ball) and tag is s.norm:
                        # the closed form |y - c| - r rounds differently
                        assert s.dist(y, tag) == pytest.approx(
                            gap, rel=1e-14, abs=1e-14)
                    else:
                        assert s.dist(y, tag) == gap, (s, tag)

    @given(d=st.integers(2, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_radius_axis_segment_is_a_box(self, d, data):
        # an l2 capsule of radius 0 that is a point or a segment along
        # one axis is the box between a and b, clipped
        coord = st.floats(-50.0, 50.0, allow_nan=False)
        a = data.draw(arrays(np.float64, (d,), elements=coord))
        b = a.copy()
        b[data.draw(st.integers(0, d - 1))] = data.draw(st.one_of(
            st.just(0.0), coord))
        y = data.draw(arrays(np.float64, (d,), elements=coord))
        K = Capsule(a=a, b=b, radius=0.0, norm=NormTag.L2)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        per = interval_dist(y, lo, hi)
        assert K._is_box()
        assert np.array_equal(K.project(y), np.clip(y, lo, hi))
        with no_descent():
            assert K.dist(y, NormTag.L1) == np.sum(per)
            assert K.dist(y, NormTag.LINF) == np.max(per)
        # a diagonal segment is no box
        assert not Capsule(a=a, b=a + 1.0, norm=NormTag.L2)._is_box()

    def test_fuzzy_gap_on_the_l1_pair_runs_no_descent(self, capsys):
        # dual-fuzz gap of |x| in one dimension against an l2 ball on
        # the l1 pair; every norm is |.| here, so the objective at the
        # witness (s, s*) has a closed form
        rng = np.random.default_rng(5)
        with no_descent():
            for _ in range(4):
                c = float(rng.uniform(-0.6, 0.6))
                rho = float(rng.uniform(0.1, 0.3))
                x = float(rng.uniform(-1.5, 1.5))
                fuzz = {"ball": {"center": [c], "radius": rho,
                                 "norm": "l2"}}
                code = main([
                    "gap", "--space", '{"dim": 1, "norm": "l1"}',
                    "--operator", '{"subdiff": {"norm": {"dim": 1}}}',
                    "--probes", json.dumps([[[x], [0.0]]]),
                    "--task", json.dumps({"dual_fuzz": fuzz}),
                    "--budget", "4", "--seed", "3"])
                assert code == 0
                rec = json.loads(capsys.readouterr().out)[
                    "tasks"][0]["records"][0]
                s = rec["witness"]["x"][0]
                ss = rec["witness"]["xstar"][0]
                assert abs(ss) <= 1.0 + 1e-9
                d = max(0.0, abs(ss - c) - rho)
                exact = (0.5 * (s - x) ** 2 + 0.5 * d * d + (s - x) * ss
                         + c * (x - s) + rho * abs(x - s))
                assert rec["value"] == pytest.approx(exact, rel=1e-12,
                                                     abs=1e-15)


# conv{(0, 0), (1, 0.2), (0.3, 1)}: from (1, 1) the l1 distance is 0.7 and
# the linf distance 28/75, both attained on the edge from (1, 0.2) to
# (0.3, 1)
TRIANGLE = [[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]]


@contextlib.contextmanager
def lp_certificates():
    """Context that lists the certificate of each LP ``sets`` solves."""
    certified = []

    def wrapped(*args):
        out = linprog(*args)
        certified.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets_module, "linprog", wrapped)
        yield certified


@st.composite
def exact_sets(draw):
    """A 2-D or 3-D hull (1-8 vertices drawn from a pool, so with
    duplicates, or on one line), ball or capsule; a radius may be 0, so
    that a capsule is a segment, diagonal as a rule."""
    d = draw(st.integers(2, 3))
    vec = arrays(np.float64, (d,), elements=st.floats(-5.0, 5.0))
    kind = draw(st.sampled_from(["hull", "line", "ball", "capsule"]))
    if kind == "hull":
        pool = draw(st.lists(vec, min_size=1, max_size=5))
        picks = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=8))
        return Polytope(vertices=np.array(picks))
    if kind == "line":
        a, step = draw(vec), draw(vec)
        ts = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
        return Polytope(vertices=np.array([a + t * step for t in ts]))
    norm = draw(st.sampled_from(list(NormTag)))
    r = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    if kind == "ball":
        return Ball(center=draw(vec), radius=r, norm=norm)
    return Capsule(a=draw(vec), b=draw(vec), radius=r, norm=norm)


def dual_units(norm, d, rng):
    """Unit vectors of the norm dual to ``norm``, sign patterns and
    coordinate vectors among them."""
    if norm is NormTag.L1:  # linf units
        U = np.vstack([np.array(list(itertools.product((-1.0, 1.0),
                                                       repeat=d))),
                       rng.uniform(-1.0, 1.0, (400, d))])
        return U / np.max(np.abs(U), axis=1, keepdims=True)
    U = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(400, d))])
    return U / np.sum(np.abs(U), axis=1, keepdims=True)


class TestExactSetDistance:
    """l1/linf distances to every kind of set, against a sandwich that
    uses only ``support`` and ``argmax_support``."""

    @given(C=exact_sets(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_distance_lies_in_the_support_sandwich(self, C, data):
        Y = data.draw(arrays(np.float64, (3, C.dim),
                             elements=st.floats(-20.0, 20.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        with no_descent(), lp_certificates() as certified:
            for norm in (NormTag.L1, NormTag.LINF):
                D = C.dist(Y, norm)
                U = dual_units(norm, C.dim, rng)
                for y, dist in zip(Y, D):
                    # weak duality: <u, y> - sigma_C(u) <= dist for every
                    # dual unit u, and every point z of C gives ||y - z||
                    lower = max(0.0, float(np.max(U @ y - C.support(U))))
                    Z = np.vstack([C.project(y)] + [
                        C.argmax_support(u) for u in U[::8]])
                    upper = float(np.min([vector_norm(y - z, norm)
                                          for z in Z]))
                    scale = max(1.0, float(np.max(np.abs(Y))),
                                float(np.max(np.abs(Z))))
                    assert lower - 1e-12 * scale <= dist, (C, y, norm)
                    assert dist <= upper + 1e-12 * scale, (C, y, norm)
        assert all(certified)

    def test_nearly_coincident_vertices_keep_their_distance(self):
        # the hull's eight vertices lie within 2e-12 of each other, below
        # the LP's tolerance: its point, (0, -1e-12), is 2e-12 off under
        # l1 and 1.5e-12 under linf, where a vertex and the projection
        # (5e-13, 5e-13) are nearest
        C = Capsule(a=np.zeros(2), b=np.zeros(2), radius=1e-12,
                    norm=NormTag.L1)
        y = np.array([1.0, 1.0])
        assert C.dist(y, NormTag.L1) == pytest.approx(2.0 - 1e-12,
                                                      rel=0.0, abs=1e-15)
        assert C.dist(y, NormTag.LINF) == pytest.approx(1.0 - 5e-13,
                                                        rel=0.0, abs=1e-15)
        assert np.array_equal(C.dist(np.vstack([y] * 3), NormTag.L1),
                              [C.dist(y, NormTag.L1)] * 3)

    @given(C=exact_sets(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_stack_is_the_point_row_by_row(self, C, data):
        Y = data.draw(arrays(np.float64, (4, C.dim),
                             elements=st.floats(-20.0, 20.0)))
        with no_descent():
            for norm in NormTag:
                D = C.dist(Y, norm)
                assert D.shape == (4,)
                for y, dist in zip(Y, D):
                    point = C.dist(y, norm)
                    assert isinstance(point, float)
                    assert dist.tobytes() == np.float64(point).tobytes()

    def test_closed_forms(self):
        y = np.array([2.0, 2.0])
        l2 = Ball(center=np.zeros(2), radius=1.0)
        l1 = Ball(center=np.zeros(2), radius=1.0, norm=NormTag.L1)
        T = Polytope(vertices=TRIANGLE)
        with no_descent():
            assert l2.dist(y, NormTag.L1) == pytest.approx(
                4.0 - np.sqrt(2.0), rel=0.0, abs=1e-15)
            assert l2.dist(y, NormTag.LINF) == pytest.approx(
                2.0 - 1.0 / np.sqrt(2.0), rel=0.0, abs=1e-15)
            assert l1.dist(y, NormTag.LINF) == 1.5
            assert T.dist(np.ones(2), NormTag.L1) == pytest.approx(
                0.7, rel=0.0, abs=1e-15)
            assert T.dist(np.ones(2), NormTag.LINF) == pytest.approx(
                28 / 75, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("norm", list(NormTag))
    def test_non_finite_rows(self, norm):
        sets = [box([0.0, 0.0], [1.0, 1.0]), Polytope(vertices=TRIANGLE)]
        sets += [Ball(center=[0.5, 0.0], radius=0.5, norm=tag)
                 for tag in NormTag]
        sets += [Capsule(a=[0.0, 0.0], b=[1.0, 2.0], radius=r, norm=tag)
                 for tag in NormTag for r in (0.0, 0.3)]
        inf, nan = np.inf, np.nan
        Y = np.array([[nan, 0.0], [inf, 0.0], [0.0, -inf], [nan, inf],
                      [1.0, 1.0]])
        for s in sets:
            D = s.dist(Y, norm)
            assert np.isnan(D[[0, 3]]).all(), s
            assert (D[[1, 2]] == inf).all(), s
            assert np.isfinite(D[4]), s
            for y, dist in zip(Y[:4], D):
                assert np.array_equal(s.dist(y, norm), dist, equal_nan=True)

    @pytest.mark.parametrize("norm", list(NormTag))
    def test_a_point_is_its_row_bit_for_bit(self, norm):
        # a point takes the stack's path over its last axis; a row of
        # finite entries whose sum overflows is tested for finiteness
        # row by row, and a stack with a non-finite row as well
        sets = [box([0.0, 0.0], [1.0, 1.0]), Polytope(vertices=TRIANGLE),
                Ball(center=[0.5, 0.0], radius=0.5, norm=norm),
                Capsule(a=[0.0, 0.0], b=[1.0, 2.0], radius=0.3)]
        rng = np.random.default_rng(11)
        Y = np.vstack([rng.uniform(-3.0, 3.0, (6, 2)), [[1e308, 1e308]]])
        for s in sets:
            with np.errstate(over="ignore", invalid="ignore"):
                D = s.dist(Y, norm)
                mixed = s.dist(np.vstack([Y, [[np.nan, 0.0]]]), norm)
                points = [s.dist(y, norm) for y in Y]
            assert D.tobytes() == mixed[:-1].tobytes(), s
            assert D.tobytes() == np.array(points).tobytes(), s
            assert all(type(d) is float for d in points)

    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.LINF])
    def test_a_far_point_takes_the_projection(self, norm):
        # at (1e20, 1e20) the LP's hull weights all round to 0; there
        # every hull point is nearest to rounding, the projection too
        y = np.array([1e20, 1e20])
        sets = [Polytope(vertices=[[0.0, 0.0], [2.0, 0.5], [0.5, 2.0]]),
                Capsule(a=[0.0, 0.0], b=[1.0, 2.0], radius=0.3, norm=norm)]
        for s in sets:
            d = s.dist(y, norm)
            assert np.isfinite(d), s
            assert d == vector_norm(y - s.project(y), norm), s
            assert d == (2e20 if norm is NormTag.L1 else 1e20), s

    def test_finite_graph_fuzzy_gap_is_exact(self):
        # the objective at the one graph point (0, (1, 1)) with w = 0 is
        # half the squared linf distance of (1, 1) to the triangle
        S = FiniteGraph(
            pair=DualPair(2, NormTag.L1),
            points=(PairedPoint([0.0, 0.0], [1.0, 1.0]),))
        Wt = Polytope(vertices=TRIANGLE)
        rep = quasidensity.fuzzy_gap_dual(S, np.zeros(2), Wt)
        assert (rep.status, rep.method) == ("exact", "enumeration")
        assert rep.value == pytest.approx(392 / 5625, rel=0.0, abs=1e-15)

    def test_overflowing_graph_row_leaves_the_fuzzy_gap(self):
        # the l1 distance of (1e308, 1e308) overflows to +inf, so that
        # row drops out; the other row gives 0.7^2 / 2
        big = [1e308, 1e308]
        data = {"schema": 1, "space": {"dim": 2, "norm": "linf"},
                "operators": {"g": {"graph": [[big, big],
                                              [[0.0, 0.0], [1.0, 1.0]]]}},
                "tasks": [{"kind": "gap", "operator": "g", "seed": 0,
                           "probes": [[[0.0, 0.0], [0.0, 0.0]]],
                           "dual_fuzz": {"polytope": TRIANGLE}}]}
        with np.errstate(over="ignore", invalid="ignore"):
            task = run_scenario(data)["tasks"][0]
        assert task["status"] == "ok", task
        rec = task["records"][0]
        assert (rec["status"], rec["method"]) == ("exact", "enumeration")
        assert rec["value"] == pytest.approx(0.245, rel=0.0, abs=1e-15)


def interior_reference(s, y, tol):
    """The scalar interior test the batched mask replaces: the closed
    form on balls, else 2n+1 ``contains`` calls (y, then y +- delta e_i)."""
    if isinstance(s, Ball):
        return s.radius > 0 and \
            vector_norm(y - s.center, s.norm) < s.radius - tol
    if not s.contains(y, tol):
        return False
    delta = 16 * max(tol, 1e-9)
    for i in range(s.dim):
        e = np.zeros(s.dim)
        e[i] = delta
        if not (s.contains(y + e, tol) and s.contains(y - e, tol)):
            return False
    return True


# 2**-20 keeps the probe width delta = 2**-16 and tol exact in binary
TOLS = st.sampled_from([1e-12, 1e-9, 1e-6, 2.0**-20])


@st.composite
def near_points(draw, anchors, tol, rows=st.integers(1, 6)):
    """Rows built from anchor coordinates (faces, corners, centres) moved
    by i delta / 2 + j tol for small integers i, j, or a free amount."""
    delta = 16 * max(tol, 1e-9)
    offset = st.one_of(
        st.builds(lambda i, j: i * delta / 2 + j * tol,
                  st.integers(-3, 3), st.integers(-2, 2)),
        st.floats(-2.0, 2.0, allow_nan=False))
    out = []
    for _ in range(draw(rows)):
        base = np.array(draw(st.sampled_from(anchors)), dtype=float)
        out.append([b + draw(offset) for b in base])
    return np.array(out)


def assert_mask_matches(s, Y, tol):
    mask = s.interior_mask(Y, tol)
    assert mask.dtype == bool and mask.shape == (len(Y),)
    ref = [interior_reference(s, y, tol) for y in Y]
    assert mask.tolist() == ref, (s, Y, tol)
    assert [s.interior_contains(y, tol) for y in Y] == ref


class TestInteriorMask:
    @given(d=st.integers(1, 3), tol=TOLS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_box_matches_scalar_contains(self, d, tol, data):
        coord = st.floats(-10.0, 10.0, allow_nan=False)
        lo = data.draw(arrays(np.float64, (d,), elements=coord))
        width = data.draw(arrays(np.float64, (d,), elements=st.one_of(
            st.just(0.0), st.floats(0.0, 5.0))))
        hi = lo + width
        s = box(lo, hi)
        assert s._is_box()
        corners = [list(c) for c in itertools.product(*zip(lo, hi))]
        Y = data.draw(near_points(corners + [list(0.5 * (lo + hi))], tol))
        assert_mask_matches(s, Y, tol)

    @pytest.mark.parametrize("name", sorted(NON_BOXES))
    @given(tol=TOLS, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_non_box_polytope_matches_scalar_contains(self, name, tol, data):
        V = np.array(NON_BOXES[name])
        s = Polytope(vertices=V)
        assert not s._is_box()
        mids = [list(0.5 * (a + b)) for a, b in itertools.combinations(V, 2)]
        Y = data.draw(near_points([list(v) for v in V] + mids, tol,
                                  rows=st.integers(1, 3)))
        assert_mask_matches(s, Y, tol)

    @pytest.mark.parametrize("norm", list(NormTag))
    @given(d=st.integers(1, 3), tol=TOLS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ball_matches_closed_form(self, norm, d, tol, data):
        c = data.draw(arrays(np.float64, (d,),
                             elements=st.floats(-5.0, 5.0)))
        r = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        s = Ball(center=c, radius=r, norm=norm)
        rims = [list(c + sign * r * e) for e in np.eye(d) for sign in (1, -1)]
        Y = data.draw(near_points(rims + [list(c)], tol))
        assert_mask_matches(s, Y, tol)

    @pytest.mark.parametrize("norm", list(NormTag))
    @given(d=st.integers(1, 2), tol=TOLS, data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_capsule_matches_scalar_contains(self, norm, d, tol, data):
        a = data.draw(arrays(np.float64, (d,),
                             elements=st.floats(-3.0, 3.0)))
        b = data.draw(arrays(np.float64, (d,),
                             elements=st.floats(-3.0, 3.0)))
        r = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        s = Capsule(a=a, b=b, radius=r, norm=norm)
        anchors = [list(a), list(b), list(a + r * np.eye(d)[0]),
                   list(b - r * np.eye(d)[-1])]
        Y = data.draw(near_points(anchors, tol, rows=st.integers(1, 3)))
        assert_mask_matches(s, Y, tol)

    def test_probe_at_exactly_tol_outside_counts_as_inside(self):
        # y + delta lands tol beyond the face x = 1, and dist <= tol
        # holds there with equality
        tol = 2.0**-20
        y = np.array([[1.0 + tol - 16 * tol, 0.5]])
        s = box([0.0, 0.0], [1.0, 1.0])
        assert s.interior_mask(y, tol).tolist() == [True]
        assert_mask_matches(s, y, tol)

    @pytest.mark.parametrize("norm", list(NormTag))
    def test_ball_at_exactly_radius_minus_tol_is_outside(self, norm):
        tol = 1e-9
        s = Ball(center=np.zeros(2), radius=1.0, norm=norm)
        y = np.array([[1.0 - tol, 0.0], [1.0 - 2 * tol, 0.0]])
        assert s.interior_mask(y, tol).tolist() == [False, True]
        assert_mask_matches(s, y, tol)

    @pytest.mark.parametrize("s", [SQUARE, interval(-1.0, 2.0),
                                   Ball(center=np.zeros(2), radius=1.0),
                                   Capsule(a=np.zeros(2), b=np.ones(2),
                                           radius=0.3)],
                             ids=["square", "interval", "ball", "capsule"])
    def test_per_row_tol_is_each_rows_own(self, s):
        rng = np.random.default_rng(4)
        tols = np.array([1e-12, 1e-9, 1e-6, 2.0**-20])
        Y = rng.uniform(-1.3, 1.3, (40, s.dim))
        # rows near the faces, where the tolerance decides
        Y[::4] = np.clip(Y[::4], -1.0 + 1.6e-8 - 5e-10, 1.0 - 1.6e-8 + 5e-10)
        tol = tols[rng.integers(0, 4, 40)]
        mask = s.interior_mask(Y, tol)
        assert mask.tolist() == [s.interior_mask(y[None], t)[0]
                                 for y, t in zip(Y, tol)]
        assert len(set(mask.tolist())) == 2

    def test_rows_must_match_the_dimension(self):
        with pytest.raises(ValueError):
            SQUARE.interior_mask(np.zeros(2))
        with pytest.raises(ValueError):
            SQUARE.interior_mask(np.zeros((3, 3)))
        assert SQUARE.interior_mask(np.zeros((0, 2))).shape == (0,)
