"""Fitzpatrick function, its conjugate, theta, extension membership."""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import (
    Affine,
    Ball,
    ConvexFn,
    DualPair,
    FiniteGraph,
    HalfSqNorm,
    IndicatorFn,
    InverseOp,
    Linear,
    NormFn,
    NormTag,
    PairedPoint,
    Polytope,
    Quadratic,
    Shift,
    Subdifferential,
    SumFn,
    SumOp,
    SupportFn,
    Translate,
    add,
    box,
    fitz_membership,
    interval,
    inverse,
    normal_cone,
    parallel_sum,
    phi,
    phi_conj,
    support_subdiff,
    theta,
    theta_conj,
)
from monotone_lab import solvers
from monotone_lab.fitzpatrick import _phi_exact
from test_rows import FN_KINDS, OP_KINDS, _fn, _op

PAIR1 = DualPair(1, NormTag.L2)
IDENTITY = Linear(pair=PAIR1, M=np.array([[1.0]]))
HALF_SQ = Subdifferential(pair=PAIR1, f=HalfSqNorm(1))
TWO_POINT = FiniteGraph(pair=PAIR1,
                        points=(PairedPoint([0.0], [0.0]),
                                PairedPoint([1.0], [1.0])))


def arr(*vals):
    return np.array([float(v) for v in vals])


@dataclass(frozen=True)
class Opaque(ConvexFn):
    """f's oracles and closed-form conjugate under a type that no phi rule
    knows, so that phi of its subdifferential is sampled."""

    f: ConvexFn

    @property
    def dim(self) -> int:
        return self.f.dim

    def eval(self, x):
        return self.f.eval(x)

    def _prox(self, z, lam):
        return self.f._prox(z, lam)

    def conjugate_fn(self):
        return self.f.conjugate_fn()


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
        # phi of d|x| + N_[-1, 1] at (0, 2) is 1, attained at (1, 1); the
        # unfolded sum has no calculus rule, so the sampled path must
        # reach it via the resolvent
        abs_, cone = (Subdifferential(pair=PAIR1, f=NormFn(1)),
                      normal_cone(PAIR1, interval(-1, 1)))
        ev = phi(SumOp(pair=PAIR1, S=abs_, T=cone), arr(0.0), arr(2.0))
        assert ev.status == "lower_bound"
        assert 1.0 - 1e-9 <= ev.value <= 1.0 + 1e-12
        # folded into d(|x| + i_[-1, 1]), a staircase, it is exact
        ev = phi(add(abs_, cone), arr(0.0), arr(2.0))
        assert (ev.value, ev.status) == (1.0, "exact")
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

    def test_subdifferential_off_graph_is_the_fenchel_young_bound(self):
        # phi* >= f(y**) + f*(y*) = 4.5 + 0.5 (the identity's phi* is +inf
        # at (1, 3)); +inf where that sum is; with no closed-form f*, the
        # pairing
        ev = phi_conj(HALF_SQ, arr(1.0), arr(3.0))
        assert (ev.value, ev.status) == (5.0, "lower_bound")
        ev = phi_conj(Subdifferential(pair=PAIR1, f=NormFn(1)), arr(2.0),
                      arr(0.0))
        assert (ev.value, ev.status) == (np.inf, "exact")
        S = Subdifferential(pair=DualPair(2), f=SumFn(NormFn(2),
                                                      HalfSqNorm(2)))
        ev = phi_conj(S, arr(3.0, 0.0), arr(1.0, 1.0))
        assert (ev.value, ev.status) == (3.0, "lower_bound")

    def test_past_the_rounding_of_dom_f_star_it_is_infinite(self):
        # f = |x| + 0.3x folds to a separable sum with dom f* =
        # [-0.7, 1.3], and (1, 1.3) is on the graph of df.  An ulp past
        # 1.3 is rounding: phi* is the pairing.  1e-6 past it is +inf
        S = Subdifferential(pair=PAIR1, f=SumFn(NormFn(1), Affine(arr(0.3))))
        ystar = arr(np.nextafter(1.3, 2.0))
        assert S.f.conjugate_fn().eval(ystar) == np.inf
        ev = phi_conj(S, ystar, arr(1.0))
        assert (ev.value, ev.status) == (float(ystar[0]), "exact")
        ev = phi_conj(S, arr(1.3 + 1e-6), arr(1.0))
        assert (ev.value, ev.status) == (np.inf, "exact")

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 3),
           kind=st.sampled_from(FN_KINDS), norm=st.sampled_from(list(NormTag)))
    # graph row 0's s* lies an ulp past the end of dom f*
    @example(seed=266, n=3, kind="sum_folded", norm=NormTag.L1)
    def test_subdifferential_between_the_pairing_and_a_sub_graph(
            self, seed, n, kind, norm):
        # phi_G <= phi of df for G a sub-graph of G(df), so phi_G* bounds
        # phi* of df from above, and phi* >= <y*, y**>; at a mixture of
        # G's points phi_G* is finite
        rng = np.random.default_rng(seed)
        pair = DualPair(n, norm)
        S = Subdifferential(pair=pair, f=_fn(rng, n, kind))
        assume(S.f.conjugate_fn() is not None)
        X, Xs = S.graph_rows(4, seed)
        G = FiniteGraph(pair=pair, points=tuple(
            PairedPoint(a, b) for a, b in zip(X, Xs)))
        lam = rng.dirichlet(np.ones(len(X)))
        for ys, yss in ((Xs[0], X[0]), (lam @ Xs, lam @ X)):
            ev, ref = phi_conj(S, ys, yss), phi_conj(G, ys, yss)
            p = float(ys @ yss)
            tol = 1e-9 * (1.0 + np.abs(ys) @ np.abs(yss) + abs(ref.value))
            assert ev.value >= p - tol
            if ref.status == "exact":
                assert ev.value <= ref.value + tol

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 3),
           kind=st.sampled_from(FN_KINDS), norm=st.sampled_from(list(NormTag)))
    def test_on_the_graph_of_a_subdifferential_it_is_the_pairing(
            self, seed, n, kind, norm):
        # phi* = <y*, y**> on G(df), where f(y**) + f*(y*) is the
        # pairing up to rounding: a graph point an ulp off dom f* is not
        # +inf
        rng = np.random.default_rng(seed)
        S = Subdifferential(pair=DualPair(n, norm), f=_fn(rng, n, kind))
        assume(S.f.conjugate_fn() is not None)
        for x, xs in zip(*S.graph_rows(8, seed)):
            p = float(xs @ x)
            assert phi_conj(S, xs, x).value == pytest.approx(
                p, rel=1e-9, abs=1e-9)

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


def lp_by_enumeration(c, A, b, tol):
    """min c'lam over lam >= 0 with A lam = b, by the basic solutions:
    every set of linearly independent columns whose solve is feasible
    to ``tol``; +inf when none is."""
    best = np.inf
    for r in range(1, min(A.shape) + 1):
        for cols in itertools.combinations(range(A.shape[1]), r):
            B = A[:, cols]
            if np.linalg.matrix_rank(B) < r:
                continue
            lam = np.linalg.lstsq(B, b, rcond=None)[0]
            if lam.min() >= -tol and np.abs(B @ lam - b).max() <= tol:
                best = min(best, float(c[list(cols)] @ lam))
    return best


@st.composite
def monotone_graphs(draw):
    """A finite graph in 1-3 D of the monotone map s -> Ms + t s^3 (M
    positive semidefinite plus skew, t in {0, 1}) at grid points drawn
    with repeats, whose grid also gives tied coordinates; and the
    points (s_i*, s_i) as rows."""
    n = draw(st.integers(1, 3))
    unit = st.integers(-8, 8).map(lambda k: k / 4.0)
    B, K = (draw(arrays(np.float64, (n, n), elements=unit)) for _ in "BK")
    t = draw(st.sampled_from([0.0, 1.0]))
    base = draw(arrays(np.float64, (draw(st.integers(1, 5)), n),
                       elements=unit))
    rows = draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                         max_size=8))
    X = base[rows]
    Xs = X @ (B @ B.T + K - K.T).T + t * X ** 3
    G = FiniteGraph(pair=DualPair(n, NormTag.L2), points=tuple(
        PairedPoint(a, b) for a, b in zip(X, Xs)))
    return G, np.hstack([Xs, X])


@st.composite
def hull_points(draw):
    """A monotone graph and a convex combination (y*, y**) of its
    points (s_i*, s_i), on a vertex, a face or inside."""
    G, V = draw(monotone_graphs())
    w = np.array(draw(st.lists(st.integers(0, 4), min_size=len(V),
                               max_size=len(V))), dtype=float)
    w[draw(st.integers(0, len(V) - 1))] += 1.0
    y = (w / w.sum()) @ V
    return G, V, y


@st.composite
def off_hull_points(draw):
    """A monotone graph and a (y*, y**) beyond its hull: past the point
    maximising <g, .> along a nonzero g."""
    G, V = draw(monotone_graphs())
    g = draw(arrays(np.float64, V.shape[1], elements=st.integers(-4, 4)))
    g[draw(st.integers(0, len(g) - 1))] = draw(st.sampled_from([-1.0, 1.0]))
    step = draw(st.sampled_from([1e-3, 0.25, 4.0]))
    return G, V, V[int(np.argmax(V @ g))] + step * g


class TestPhiConjCertificate:
    @given(case=hull_points())
    @settings(max_examples=150, deadline=None)
    def test_inside_the_hull_the_lp_value_is_exact(self, case):
        G, V, y = case
        n = G.pair.dim
        cost = np.einsum("ij,ij->i", V[:, :n], V[:, n:])
        A = np.vstack([V.T, np.ones(len(V))])
        scale = 1.0 + np.abs(cost).max()
        ev = phi_conj(G, y[:n], y[n:])
        assert ev.status == "exact"
        ref = lp_by_enumeration(cost, A, np.append(y, 1.0),
                                1e-9 * (1.0 + np.abs(A).max()))
        assert ev.value == pytest.approx(ref, abs=1e-9 * scale)
        # the cost less the pairing is a lam-weighted sum of
        # monotonicity products
        assert ev.value >= float(y[:n] @ y[n:]) - 1e-9 * scale

    @given(case=off_hull_points())
    @settings(max_examples=150, deadline=None)
    def test_off_the_hull_it_is_inf_with_a_separating_direction(self, case):
        G, V, y = case
        n = G.pair.dim
        ev = phi_conj(G, y[:n], y[n:])
        assert (ev.value, ev.status) == (np.inf, "exact")
        d = np.concatenate([ev.direction.x, ev.direction.xstar])
        assert float(d @ y) > float((V @ d).max())

    @given(case=hull_points())
    @settings(max_examples=50, deadline=None)
    def test_no_label_without_a_closed_certificate(self, case):
        # a z that Lemke's pivots did not end on, and no z at all: the
        # LP value is not certified, and inside the hull no direction
        # separates, so the pairing stays a lower bound
        G, V, y = case
        n = G.pair.dim
        real = solvers.lemke

        def perturbed(Q, q, *args):
            z, pivots = real(Q, q, *args)
            return z + 1e-6, pivots

        for stub in (perturbed, lambda Q, q, *args: (None, 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "lemke", stub)
                ev = phi_conj(G, y[:n], y[n:])
            assert ev.status == "lower_bound"
            assert ev.value == float(y[:n] @ y[n:])
            assert ev.direction is None

    def test_a_nan_point_leaves_the_pairing(self):
        # no LP over a NaN cost and no hull test: the pairing, unlabelled
        G = FiniteGraph(pair=PAIR1, points=(
            PairedPoint([0.0], [np.nan]), PairedPoint([1.0], [1.0]),
            PairedPoint([-1.0], [-1.0])))
        ev = phi_conj(G, arr(0.5), arr(0.5))
        assert (ev.value, ev.status, ev.direction) == (0.25, "lower_bound",
                                                       None)


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
        # within tol, and is exact on d(x^2/2), a staircase: in
        ystar, yss = arr(1.0017), arr(1.0)
        th = (ystar[0] + yss[0]) ** 2 / 4.0 - ystar[0] * yss[0]
        assert 0.0 < th <= 1e-6
        assert fitz_membership(HALF_SQ, ystar, yss, tol=1e-6) == "in"
        # y* = My** + d v, v the unit eigenvector of M's eigenvalue 1.5,
        # puts theta of d(s'Ms/2) d^2/6 = 7.2e-7 above the pairing.  With
        # M not diagonal it is exact as a linear map's: in
        M = np.array([[1.0, 0.5], [0.5, 1.0]])
        f = Quadratic(M, np.zeros(2))
        yss = np.array([1.0, 0.0])
        ystar = M @ yss + np.sqrt(4.32e-6) * np.ones(2) / np.sqrt(2.0)
        S = Subdifferential(pair=DualPair(2), f=f)
        th = theta(S, ystar, yss)
        assert th.status == "exact"
        assert th.value - float(ystar @ yss) == pytest.approx(7.2e-7,
                                                              rel=1e-6)
        assert fitz_membership(S, ystar, yss, tol=1e-6) == "in"
        # behind a type no rule knows, theta is sampled: the conjugate
        # chain's f + f* (2x, 1.44e-6 above) cannot show in, and the
        # squared resolvent residual (d^2/6.25) cannot show out
        S = Subdifferential(pair=DualPair(2), f=Opaque(f))
        assert theta(S, ystar, yss).status == "lower_bound"
        assert fitz_membership(S, ystar, yss, tol=1e-6) == "unknown"
        # off the graph at tol 1e-7, f + f* 1.25e-7 above the pairing: in
        assert HALF_SQ.contains(arr(1.0), arr(1.0005)) == "no"
        assert fitz_membership(HALF_SQ, arr(1.0005), arr(1.0)) == "in"

    def test_a_sampled_theta_carries_the_resolvent_bound(self):
        # the sampled theta holds the resolvent point s of y** + y*, whose
        # piece is <y*, y**> + ||s - y**||^2, so it alone says out off
        # the graph
        M = np.array([[1.0, 0.5], [0.5, 1.0]])
        S = Subdifferential(pair=DualPair(2), f=Opaque(Quadratic(
            M, np.zeros(2))))
        rng = np.random.default_rng(11)
        for _ in range(6):
            yss = rng.normal(size=2)
            ystar = M @ yss + rng.uniform(0.05, 1.0) * rng.normal(size=2)
            th = theta(S, ystar, yss)
            assert th.status == "lower_bound"
            s = S.f.prox(ystar + yss)
            gap = float(np.sum((s - yss) ** 2))
            assert th.value >= float(ystar @ yss) + gap - 1e-9
            assert fitz_membership(S, ystar, yss, tol=0.5 * gap) == "out"

    def test_a_sampled_theta_on_the_graph_is_in_by_contains(self):
        # on G(df) a sampled theta cannot rise above the pairing, and
        # membership in df decides: in
        M = np.array([[1.0, 0.5], [0.5, 1.0]])
        S = Subdifferential(pair=DualPair(2), f=Opaque(Quadratic(
            M, np.zeros(2))))
        rng = np.random.default_rng(12)
        for _ in range(6):
            yss = rng.normal(size=2)
            ystar = M @ yss
            assert theta(S, ystar, yss).status == "lower_bound"
            assert fitz_membership(S, ystar, yss) == "in"

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            fitz_membership(IDENTITY, arr(0.0), arr(0.0), tol=0.0)


# ---------------------------------------------------------------------------
# closed forms: normal cones, support subdifferentials, shifts, inverses

SET_KINDS = ("box", "hull", "ball_l1", "ball_l2", "ball_linf")
FORMS = ("normal_cone", "subdiff_indicator", "support_subdiff",
         "subdiff_support", "norm")
WRAPS = ("none", "shift", "inverse", "inverse_shift")


def make_set(rng, n, kind):
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, n)
        return box(lo, lo + rng.uniform(0.1, 2.0, n))
    if kind == "hull":
        return Polytope(vertices=rng.uniform(-2.0, 2.0, (n + 2, n)))
    return Ball(center=rng.uniform(-1.0, 1.0, n),
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
        return support_subdiff(pair, make_set(rng, n, set_kind))
    if form == "subdiff_support":
        return Subdifferential(
            pair=pair, f=SupportFn(make_set(rng, n, set_kind)))
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


# ---------------------------------------------------------------------------
# separable functions: staircases, coordinate by coordinate

SEPARABLE_SUMS = ("l1+box", "support+box", "half_sq+l1")


@st.composite
def separable_case(draw):
    """(S, x, x*, seed, probe): d(f + g) for one of the three folded
    separable sums in dimension 1-3 on one of the three pairs, and a probe
    that is free, a graph row, or a graph row moved in one component."""
    n = draw(st.integers(1, 3))
    pair = DualPair(n, draw(st.sampled_from(list(NormTag))))
    kind = draw(st.sampled_from(SEPARABLE_SUMS))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    lo, lo2 = rng.uniform(-2.0, 0.0, (2, n))
    scale = float(rng.uniform(0.1, 2.0))
    l1 = NormFn(n, scale, NormTag.L1)
    f, g = {
        "l1+box": (l1, IndicatorFn(box(lo, lo + rng.uniform(0.1, 2.0, n)))),
        "support+box": (SupportFn(box(lo2, lo2 + rng.uniform(0.0, 2.0, n))),
                        IndicatorFn(box(lo, lo + rng.uniform(0.1, 2.0, n)))),
        "half_sq+l1": (HalfSqNorm(n), l1),
    }[kind]
    S = add(Subdifferential(pair=pair, f=f), Subdifferential(pair=pair, f=g))
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


class TestSeparable:
    @settings(max_examples=200, deadline=None)
    @given(separable_case())
    def test_staircases_bound_samples_attain_and_certify(self, case):
        S, x, xs, seed, probe = case
        assert isinstance(S, Subdifferential) and S.f.folds
        ev = phi(S, x, xs)
        assert ev.status == "exact"
        w = ev.witness
        # the sampled phi at budget 2000, with the resolvent point
        X, Xs = S.graph_rows(2000, seed)
        p = S.resolvent(x + xs)
        vals = pieces(np.vstack([X, p.x]), np.vstack([Xs, p.xstar]), x, xs)
        scale = 1.0 + float(np.max(np.abs(vals)))
        assert ev.value >= float(np.max(vals)) - 1e-9 * scale
        assert S.contains(w.x, w.xstar) == "yes"
        if ev.value == np.inf:
            # a graph ray from the witness, in one coordinate, whose
            # pieces grow
            d = ev.direction
            assert np.count_nonzero(np.abs(d.x) + np.abs(d.xstar)) == 1
            grow = [pieces(w.x + t * d.x, w.xstar + t * d.xstar, x, xs)[0]
                    for t in (0.0, 1.0, 10.0)]
            assert grow[0] < grow[1] < grow[2]
            assert S.contains(w.x + 10.0 * d.x, w.xstar + 10.0 * d.xstar) \
                == "yes"
            return
        # the value is the pieces at the point it names
        assert pieces(w.x, w.xstar, x, xs)[0] == pytest.approx(
            ev.value, abs=1e-12 * scale)
        if probe == "graph":
            assert ev.value == pytest.approx(
                float(x @ xs), abs=1e-12 * (1.0 + np.abs(x) @ np.abs(xs)))

    @settings(max_examples=100, deadline=None)
    @given(separable_case())
    def test_conjugate_meets_fenchel_young(self, case):
        # f* >= <s, y> - f(s) at sampled s, with equality on the graph
        S, x, xs, seed, _ = case
        f, g = S.f, S.f.conjugate_fn()
        X, Xs = S.graph_rows(64, seed)
        y = np.random.default_rng(seed).uniform(-4.0, 4.0, len(x))
        low = max(float(s @ y) - f.eval(s) for s in X)
        assert g.eval(y) >= low - 1e-9 * (1.0 + abs(low))
        for s, ss in zip(X, Xs):
            gap = f.eval(s) + g.eval(ss) - float(s @ ss)
            assert abs(gap) <= 1e-9 * (1.0 + np.abs(s) @ np.abs(ss))
        assert fitz_membership(S, Xs[0], X[0]) == "in"
        assert phi_conj(S, Xs[0], X[0]).status == "exact"

    def test_off_the_domain_is_inf_on_it_a_corner(self):
        # d(|x| + i_[-1, 1]): x = 2 lies past the vertical ray at 1; at
        # (0.5, 2) the best corner is (1, 1): 2 + 0.5 - 1
        S = add(Subdifferential(pair=PAIR1, f=NormFn(1)),
                normal_cone(PAIR1, interval(-1.0, 1.0)))
        ev = phi(S, arr(2.0), arr(0.5))
        assert (ev.value, ev.status) == (np.inf, "exact")
        assert (ev.direction.x[0], ev.direction.xstar[0]) == (0.0, 1.0)
        ev = phi(S, arr(0.5), arr(2.0))
        assert (ev.value, ev.status) == (1.5, "exact")
        assert (ev.witness.x[0], ev.witness.xstar[0]) == (1.0, 1.0)

    def test_folded_parallel_sums_are_exact(self):
        # d(|x| + i_[-1, 1]) # d(x^2/2) is the inverse of the fold of the
        # conjugates, a staircase plus the half square; its phi is exact
        # and bounds the sampled pieces of its graph
        S = add(Subdifferential(pair=PAIR1, f=NormFn(1)),
                normal_cone(PAIR1, interval(-1.0, 1.0)))
        P = parallel_sum(S, HALF_SQ)
        assert isinstance(P, InverseOp)
        X, Xs = P.graph_rows(200, 0)
        for x, xs in np.random.default_rng(7).uniform(-3.0, 3.0, (20, 2)):
            ev = phi(P, arr(x), arr(xs))
            assert ev.status == "exact"
            assert ev.value >= float(np.max(pieces(X, Xs, arr(x), arr(xs)))
                                     ) - 1e-12

    @pytest.mark.parametrize("norm", list(NormTag))
    @pytest.mark.parametrize("n", [2, 3])
    def test_a_quadratic_is_a_shifted_linear_map(self, norm, n):
        # d(s'Qs/2 + b's + c) with Q not diagonal is s -> Qs + b, whose
        # phi is sup_s <s, c> - s'Qs with c = x* + Qx - b, plus <x, b>:
        # c'Q^-1 c / 4 + <x, b> for Q positive definite
        rng = np.random.default_rng(n)
        B = rng.normal(size=(n, n))
        Q, b = B @ B.T + 0.1 * np.eye(n), rng.normal(size=n)
        pair = DualPair(n, norm)
        S = Subdifferential(pair=pair, f=Quadratic(Q, b, 0.5))
        for x, xs in rng.uniform(-2.0, 2.0, (10, 2, n)):
            ev = phi(S, x, xs)
            c = xs + Q @ x - b
            ref = 0.25 * float(c @ np.linalg.solve(Q, c)) + float(x @ b)
            assert ev.status == "exact"
            assert ev.value == pytest.approx(ref, rel=1e-12, abs=1e-12)
            w = ev.witness
            assert np.allclose(w.xstar, Q @ w.x + b, rtol=0, atol=1e-12)
            # a translate of it is a shift too
            T = Subdifferential(pair=pair, f=Translate(Quadratic(Q, b), x,
                                                       xs))
            assert phi(T, x, xs).status == "exact"
        # on the graph phi is the pairing
        x = rng.normal(size=n)
        ev = phi(S, x, Q @ x + b)
        assert ev.value == pytest.approx(float(x @ (Q @ x + b)), abs=1e-12)
        # a singular Q: +inf off its range, along a graph ray
        Q = np.ones((n, n))
        S = Subdifferential(pair=pair, f=Quadratic(Q, b))
        x, xs = np.zeros(n), np.eye(n)[0]
        ev = phi(S, x, xs)
        assert (ev.value, ev.status) == (np.inf, "exact")
        w, d = ev.witness, ev.direction
        assert np.allclose(w.xstar, Q @ w.x + b)
        assert np.allclose(d.xstar, Q @ d.x)
        assert d.x @ (xs - w.xstar) + (x - w.x) @ d.xstar > 0.0

    def test_translates_are_shifts(self):
        # d(||. + a||_2 - <., b>) in 2-D is not separable; it is d||.||_2
        # shifted by (a, b), so exact as the shift of a norm's rule
        a, b = np.array([0.5, -1.0]), np.array([0.2, 0.1])
        pair = DualPair(2)
        T = Subdifferential(pair=pair, f=Translate(NormFn(2), a, b))
        N = Shift(pair=pair, inner=Subdifferential(pair=pair, f=NormFn(2)),
                  dx=a, dxstar=b)
        rng = np.random.default_rng(5)
        for x, xs in rng.uniform(-2.0, 2.0, (20, 2, 2)):
            ev, ref = phi(T, x, xs), phi(N, x, xs)
            assert ev.status == "exact"
            assert (ev.value, ev.status) == (ref.value, ref.status)


class TestPhiAgainstPairing:
    # maximal monotone kinds: a finite graph need not be
    @pytest.mark.parametrize("kind", [k for k in OP_KINDS if "graph" not in k])
    @pytest.mark.parametrize("norm", list(NormTag))
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 3))
    def test_phi_is_above_the_pairing_and_below_upper(self, kind, norm,
                                                      seed, n):
        rng = np.random.default_rng(seed)
        S = _op(rng, DualPair(n, norm), kind)
        x, xs = rng.uniform(-2.0, 2.0, (2, n))
        ev = phi(S, x, xs, budget=16, seed=seed)
        p = float(x @ xs)
        tol = 1e-9 * (1.0 + np.abs(x) @ np.abs(xs))
        assert ev.value >= p - tol
        # Fitzpatrick's inequality: phi of df <= f(x) + f*(x*)
        g = S.f.conjugate_fn() if isinstance(S, Subdifferential) else None
        if g is not None:
            upper = S.f.eval(x) + g.eval(xs)
            assert ev.value <= upper + tol * (1.0 + abs(upper))
