"""Fitzpatrick function, its conjugate, theta, extension membership."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotone_lab import (
    Ball,
    DualPair,
    FiniteGraph,
    HalfSqNorm,
    IndicatorFn,
    Linear,
    NormFn,
    NormTag,
    PairedPoint,
    Polytope,
    Shift,
    Subdifferential,
    SumFn,
    SupportFn,
    box,
    fitz_membership,
    interval,
    inverse,
    normal_cone,
    phi,
    phi_conj,
    support_subdiff,
    theta,
    theta_conj,
)
from monotone_lab.fitzpatrick import _phi_exact

PAIR1 = DualPair(1, NormTag.L2)
IDENTITY = Linear(pair=PAIR1, M=np.array([[1.0]]))
HALF_SQ = Subdifferential(pair=PAIR1, f=HalfSqNorm(1))
TWO_POINT = FiniteGraph(pair=PAIR1,
                        points=(PairedPoint([0.0], [0.0]),
                                PairedPoint([1.0], [1.0])))


def arr(*vals):
    return np.array([float(v) for v in vals])


class TestPhi:
    def test_two_point_graph(self):
        ev = phi(TWO_POINT, arr(1.0), arr(1.0))
        assert ev.status == "exact"
        assert ev.value == 1.0
        assert ev.witness.x[0] == 1.0

    def test_two_point_graph_at_origin(self):
        assert phi(TWO_POINT, arr(0.0), arr(0.0)).value == 0.0

    def test_identity_closed_form(self):
        # phi(x, x*) = (x + x*)^2 / 4 for the identity map
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, xs = rng.normal(size=2) * 3
            ev = phi(IDENTITY, arr(x), arr(xs))
            assert ev.status == "exact"
            assert ev.value == pytest.approx((x + xs) ** 2 / 4, abs=1e-10)

    def test_identity_closed_form_matches_sampled_ascent(self):
        # brute maximization of <s,x*> + <x,s> - s^2 over a fine grid
        x, xs = 1.3, -0.4
        grid = np.linspace(-5, 5, 200001)
        brute = float(np.max(grid * xs + x * grid - grid * grid))
        ev = phi(IDENTITY, arr(x), arr(xs))
        assert ev.value == pytest.approx(brute, abs=1e-7)

    def test_phi_dominates_pairing_at_graph_points(self):
        # phi(s, s*) = <s, s*> exactly on the graph of a monotone map
        for p in TWO_POINT.points:
            ev = phi(TWO_POINT, p.x, p.xstar)
            assert ev.value == pytest.approx(float(p.x @ p.xstar), abs=1e-12)

    def test_sampled_lower_bound_includes_resolvent_point(self):
        # phi of d(|x| + indicator of [-1, 1]) at (0, 2) is 1, attained at
        # (1, 1); the sampled path must reach it via the resolvent
        S = Subdifferential(pair=PAIR1, f=SumFn(NormFn(1),
                                                IndicatorFn(interval(-1, 1))))
        ev = phi(S, arr(0.0), arr(2.0))
        assert ev.status == "lower_bound"
        assert 1.0 - 1e-9 <= ev.value <= 1.0 + 1e-12
        # without the indicator the pieces s (2 - 1) along (s, 1) grow
        # without bound
        ev = phi(Subdifferential(pair=PAIR1, f=NormFn(1)), arr(0.0), arr(2.0))
        assert (ev.value, ev.status) == (np.inf, "exact")
        assert ev.direction is not None

    def test_skew_linear_is_pairing(self):
        # for a skew matrix the sup collapses: phi = <x, x*> when
        # (x, x*) solves the stationarity system, +inf otherwise
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        S = Linear(pair=DualPair(2), M=M)
        x = np.array([1.0, 0.5])
        ev = phi(S, x, M @ x)
        assert ev.status == "exact"
        assert ev.value == pytest.approx(float(x @ (M @ x)), abs=1e-10)
        ev2 = phi(S, x, M @ x + np.array([0.1, 0.0]))
        assert ev2.value == np.inf
        assert ev2.direction is not None


class TestTheta:
    def test_swap_identity_on_finite_graph(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ws, wss = rng.normal(size=2) * 2
            a = theta(TWO_POINT, arr(ws), arr(wss))
            b = phi(TWO_POINT, arr(wss), arr(ws))
            assert a.value == b.value
            assert a.status == "exact"

    def test_pairing_at_swapped_graph_point(self):
        G = FiniteGraph(pair=PAIR1, points=(PairedPoint([1.0], [2.0]),))
        assert theta(G, arr(2.0), arr(1.0)).value == pytest.approx(2.0)


class TestPhiConj:
    def test_singleton_graph_conjugate_is_origin_indicator(self):
        # phi of {(0,0)} is identically 0, so phi* is the indicator of 0
        G = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [0.0]),))
        assert phi_conj(G, arr(0.0), arr(0.0)).value == 0.0
        assert phi_conj(G, arr(1.0), arr(1.0)).value == np.inf

    def test_two_point_graph_lp(self):
        ev = phi_conj(TWO_POINT, arr(1.0), arr(1.0))
        assert ev.status == "exact"
        assert ev.value == pytest.approx(1.0, abs=1e-9)

    def test_two_point_graph_midpoint(self):
        # (1/2, 1/2) is the even mixture, cost = 0.5 * <1,1> = 0.5
        ev = phi_conj(TWO_POINT, arr(0.5), arr(0.5))
        assert ev.value == pytest.approx(0.5, abs=1e-9)

    def test_outside_hull_is_infinite(self):
        assert phi_conj(TWO_POINT, arr(2.0), arr(2.0)).value == np.inf

    def test_subdifferential_sandwich_on_graph(self):
        # at (2, 2) in the graph of d(x^2/2): f(2) + f*(2) = 2 + 2 = 4
        ev = phi_conj(HALF_SQ, arr(2.0), arr(2.0))
        assert ev.status == "exact"
        assert ev.value == pytest.approx(4.0, abs=1e-9)
        assert ev.upper == pytest.approx(4.0, abs=1e-9)

    def test_subdifferential_off_graph_is_bounded_bracket(self):
        ev = phi_conj(HALF_SQ, arr(1.0), arr(3.0))
        assert ev.status == "lower_bound"
        assert ev.value == pytest.approx(3.0)  # pairing
        assert ev.upper == pytest.approx(0.5 + 4.5)  # f*(1) + f(3)

    def test_dominates_pairing_on_mixtures(self):
        # phi* >= <y*, y**> wherever finite, for monotone graphs
        rng = np.random.default_rng(8)
        pts = tuple(PairedPoint([float(x)], [float(x) ** 3])
                    for x in np.linspace(-1.5, 1.5, 7))
        G = FiniteGraph(pair=PAIR1, points=pts)
        for _ in range(100):
            lam = rng.dirichlet(np.ones(len(pts)))
            ys = sum(l * p.xstar for l, p in zip(lam, pts))
            yss = sum(l * p.x for l, p in zip(lam, pts))
            ev = phi_conj(G, ys, yss)
            assert ev.status == "exact"
            assert ev.value >= float(ys @ yss) - 1e-8

    def test_theta_conj_swap(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = rng.normal(size=2)
            u = theta_conj(TWO_POINT, arr(a), arr(b))
            v = phi_conj(TWO_POINT, arr(b), arr(a))
            assert u.value == v.value


class TestMembership:
    def test_identity_in_and_out(self):
        assert fitz_membership(IDENTITY, arr(1.0), arr(1.0)) == "in"
        assert fitz_membership(IDENTITY, arr(2.0), arr(1.0)) == "out"

    def test_half_square_graph_point(self):
        assert fitz_membership(HALF_SQ, arr(1.0), arr(1.0)) == "in"
        assert fitz_membership(HALF_SQ, arr(0.0), arr(1.0)) == "out"

    def test_abs_subdifferential_kink_face(self):
        S = Subdifferential(pair=PAIR1, f=NormFn(1))
        assert fitz_membership(S, arr(0.5), arr(0.0)) == "in"
        assert fitz_membership(S, arr(0.5), arr(2.0)) == "out"

    def test_finite_graph_swapped_point(self):
        G = FiniteGraph(pair=PAIR1, points=(PairedPoint([1.0], [2.0]),))
        assert fitz_membership(G, arr(2.0), arr(1.0)) == "in"
        # theta(0, 2) = 4 + 0 - 2 = 2 > <0, 2> = 0
        assert fitz_membership(G, arr(0.0), arr(2.0)) == "out"

    def test_verdicts_keep_to_the_criterion(self):
        # theta(1.0017, 1) = (2.0017)^2 / 4 lies 7.2e-7 above the pairing,
        # within tol: the conjugate chain's f + f* (1.4e-6 above) cannot
        # show out, and the resolvent residual (7.2e-7) cannot show in
        ystar, yss = arr(1.0017), arr(1.0)
        th = (ystar[0] + yss[0]) ** 2 / 4.0 - ystar[0] * yss[0]
        assert 0.0 < th <= 1e-6
        assert fitz_membership(HALF_SQ, ystar, yss, tol=1e-6) == "unknown"
        # off the graph at tol 1e-7, f + f* 1.25e-7 above the pairing: in
        assert HALF_SQ.contains(arr(1.0), arr(1.0005)) == "no"
        assert fitz_membership(HALF_SQ, arr(1.0005), arr(1.0)) == "in"

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            fitz_membership(IDENTITY, arr(0.0), arr(0.0), tol=0.0)


# ---------------------------------------------------------------------------
# closed forms: normal cones, support subdifferentials, shifts, inverses

SET_KINDS = ("box", "hull", "ball_l1", "ball_l2", "ball_linf")
FORMS = ("normal_cone", "subdiff_indicator", "support_subdiff",
         "subdiff_support", "norm")
WRAPS = ("none", "shift", "inverse", "inverse_shift")


def make_set(rng, n, kind, side="primal"):
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, n)
        return box(lo, lo + rng.uniform(0.1, 2.0, n), side=side)
    if kind == "hull":
        return Polytope(side=side, vertices=rng.uniform(-2.0, 2.0, (n + 2, n)))
    return Ball(side=side, center=rng.uniform(-1.0, 1.0, n),
                radius=float(rng.uniform(0.1, 2.0)),
                norm=NormTag(kind.split("_")[1]))


def make_form(rng, pair, form, set_kind, norm_kind):
    n = pair.dim
    if form == "normal_cone":
        return normal_cone(pair, make_set(rng, n, set_kind))
    if form == "subdiff_indicator":
        return Subdifferential(pair=pair,
                               f=IndicatorFn(make_set(rng, n, set_kind)))
    if form == "support_subdiff":
        return support_subdiff(pair, make_set(rng, n, set_kind, "dual"))
    if form == "subdiff_support":
        return Subdifferential(
            pair=pair, f=SupportFn(make_set(rng, n, set_kind, "dual")))
    return Subdifferential(pair=pair, f=NormFn(n, float(rng.uniform(0, 2)),
                                               norm_kind))


@st.composite
def closed_form_case(draw):
    """(S, x, x*, seed): a normal-cone or support form on one of the three
    pairs, maybe shifted and inverted, and a probe that is free, a graph
    row, or a graph row moved in one component."""
    n = draw(st.integers(1, 3))
    norm = draw(st.sampled_from(list(NormTag)))
    wrap = draw(st.sampled_from(WRAPS))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    pair = DualPair(n, norm)
    inner_pair = DualPair(n, norm.dual()) if "inverse" in wrap else pair
    S = make_form(rng, inner_pair, draw(st.sampled_from(FORMS)),
                  draw(st.sampled_from(SET_KINDS)),
                  draw(st.sampled_from(list(NormTag))))
    if "shift" in wrap:
        S = Shift(pair=inner_pair, inner=S, dx=rng.normal(size=n),
                  dxstar=rng.normal(size=n))
    if "inverse" in wrap:
        S = inverse(S)
    probe = draw(st.sampled_from(("free", "graph", "move_x", "move_xstar")))
    if probe == "free":
        x, xs = rng.uniform(-3.0, 3.0, (2, n))
    else:
        X, Xs = S.graph_rows(8, seed)
        i = int(rng.integers(len(X)))
        x, xs = X[i].copy(), Xs[i].copy()
        if probe != "graph":
            (x if probe == "move_x" else xs)[:] += rng.normal(size=n)
    return S, x, xs, seed, probe


def pieces(X, Xs, x, xs):
    """<s, x*> + <x, s*> - <s, s*> at each row (s, s*) of (X, Xs)."""
    X, Xs = np.atleast_2d(X), np.atleast_2d(Xs)
    return X @ xs + Xs @ x - np.sum(X * Xs, axis=1)


class TestClosedForms:
    @settings(max_examples=300, deadline=None)
    @given(closed_form_case())
    def test_closed_form_bounds_attains_and_certifies(self, case):
        S, x, xs, seed, probe = case
        ev = phi(S, x, xs, budget=16, seed=seed)
        assert _phi_exact(S, x, xs, np.abs(x), np.abs(xs)) is not None
        # theta(w*, w**) = phi(w**, w*) on the same path
        th = theta(S, xs, x, budget=16, seed=seed)
        assert (th.value, th.status) == (ev.value, ev.status)
        w = ev.witness
        if probe == "graph":
            # phi is the pairing on the graph, whichever path decides
            assert ev.value == pytest.approx(
                float(x @ xs), abs=1e-9 * (1.0 + np.abs(x) @ np.abs(xs)))
        if ev.value == np.inf:
            # a graph ray from the witness whose pieces grow without bound
            assert ev.status == "exact" and ev.direction is not None
            # the piece at w + t d is its value at w plus t slope minus
            # t^2 curvature; a ray of a normal cone form has curvature 0
            d = ev.direction
            slope = d.x @ (xs - w.xstar) + (x - w.x) @ d.xstar
            assert d.x @ d.xstar == 0.0 and slope > 0.0
            assert S.contains(w.x + d.x, w.xstar + d.xstar) != "no"
            return
        assert np.isfinite(ev.value)
        if ev.status != "exact":
            return
        X, Xs = S.graph_rows(64, seed)
        vals = pieces(X, Xs, x, xs)
        scale = 1.0 + float(np.max(np.abs(vals)))
        assert ev.value >= float(np.max(vals)) - 1e-9 * scale
        assert pieces(w.x, w.xstar, x, xs)[0] == pytest.approx(
            ev.value, abs=1e-9 * scale)
        assert S.contains(w.x, w.xstar) != "no"

    def test_just_off_the_interval_is_out(self):
        # C = [0, 1], y* = 0, y** = -1e-9: theta(y*, y**) = phi(y**, y*)
        # is +inf, though the indicator's tolerance admits y**
        S = normal_cone(PAIR1, interval(0.0, 1.0))
        th = theta(S, arr(0.0), arr(-1e-9))
        assert (th.value, th.status) == (np.inf, "exact")
        assert fitz_membership(S, arr(0.0), arr(-1e-9)) == "out"
        assert fitz_membership(S, arr(0.0), arr(0.0)) == "in"

    @pytest.mark.parametrize("n", [2, 3])
    def test_hull_inside_is_finite(self, n):
        # Wolfe's projection returns a convex combination of vertices,
        # which can miss a point of the hull by a rounding-sized d; that
        # d must not certify +inf, whatever near tie argmax_support picks
        rng = np.random.default_rng(n)
        pair = DualPair(n)
        C = Polytope(vertices=rng.uniform(-2.0, 2.0, (n + 2, n)))
        S = normal_cone(pair, C)
        for _ in range(40):
            y = rng.uniform(-4.0, 4.0, n)
            xs = rng.uniform(-1.0, 1.0, n)
            # an interior point: phi is sigma_C(x*)
            w = rng.dirichlet(np.ones(n + 2)) @ C.vertices
            ev = phi(S, w, xs)
            assert ev.value == pytest.approx(C.support(xs), abs=1e-12)
            # a projected boundary point with a normal: phi is the pairing
            x = C.project(y)
            ev = phi(S, x, y - x)
            assert ev.value == pytest.approx(float(x @ (y - x)), abs=1e-9)
            assert fitz_membership(S, y - x, x) == "in"
            # a point off the hull: +inf, "out"
            assert phi(S, y + (y - x), xs).value == np.inf or np.allclose(
                y, x)

    def test_linear_infinity_carries_a_graph_ray(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        S = Linear(pair=DualPair(2), M=M)
        x = np.array([1.0, 0.5])
        xs = M @ x + np.array([0.1, 0.0])
        ev = phi(S, x, xs)
        assert ev.value == np.inf
        w, d = ev.witness, ev.direction
        assert np.allclose(M @ d.x, d.xstar) and np.allclose(M @ w.x, w.xstar)
        vals = pieces(np.vstack([w.x, w.x + d.x, w.x + 4 * d.x]),
                      np.vstack([w.xstar, w.xstar + d.xstar,
                                 w.xstar + 4 * d.xstar]), x, xs)
        assert vals[0] < vals[1] < vals[2]
        # the inverse reads the same ray swapped
        inv = phi(inverse(S), xs, x)
        assert inv.value == np.inf
        assert np.array_equal(inv.direction.x, d.xstar)
