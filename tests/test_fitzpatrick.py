"""Fitzpatrick function, its conjugate, theta, extension membership."""

import numpy as np
import pytest

from monotone_lab import (
    DualPair,
    FiniteGraph,
    HalfSqNorm,
    Linear,
    NormFn,
    NormTag,
    PairedPoint,
    Subdifferential,
    fitz_membership,
    phi,
    phi_conj,
    theta,
    theta_conj,
)

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
        S = Subdifferential(pair=PAIR1, f=NormFn(1))
        # true phi for the abs subdifferential at (0, 2) is 1, attained
        # near (1, 1); the sampled path must reach it via the resolvent
        ev = phi(S, arr(0.0), arr(2.0))
        assert ev.status == "lower_bound"
        assert ev.value >= 1.0 - 1e-9

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
