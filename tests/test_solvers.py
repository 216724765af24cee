"""Euclidean projection onto a convex hull (Wolfe's minimum-norm point),
l1-ball projection, Lemke's complementary pivoting and the linear
programs solved by it."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import Polytope, solvers, tail_operator
from monotone_lab.quasidensity import _gap_lcp
from monotone_lab.solvers import (_lex_min, _pivot, _ratio_test, lemke,
                                  linprog, nearest_hull_point,
                                  project_l1_ball)


def brute_force_projection(V: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Projection of y onto conv(V) by enumeration.  For every vertex
    subset of at most dim + 1 points, the point of its affine hull
    nearest y is a candidate when its affine weights are nonnegative;
    the projection is the candidate p with <v - p, y - p> <= 0 for all
    vertices v, so the candidate with the smallest largest such product
    is kept.  (Picking the candidate nearest y instead is ill-posed in
    floating point: distances of candidates a distance t apart differ
    only by O(t^2), so ties hide offsets of about sqrt(eps).)"""
    best, best_viol = None, np.inf
    m, d = V.shape
    for k in range(1, min(m, d + 1) + 1):
        for subset in itertools.combinations(range(m), k):
            Q = V[list(subset)]
            if k == 1:
                weights = np.ones(1)
            else:
                beta = np.linalg.lstsq((Q[1:] - Q[0]).T, y - Q[0],
                                       rcond=None)[0]
                weights = np.concatenate(([1.0 - beta.sum()], beta))
            if np.all(weights >= -1e-12):
                p = weights @ Q
                viol = float(np.max((V - p) @ (y - p)))
                if viol < best_viol:
                    best, best_viol = p, viol
    return best


@st.composite
def hull_and_point(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["float", "grid", "collinear"]))
    if kind == "float":
        V = draw(arrays(np.float64, (m, d),
                        elements=st.floats(-10.0, 10.0, allow_nan=False)))
    elif kind == "grid":  # duplicate vertices are common on a small grid
        V = draw(arrays(np.float64, (m, d),
                        elements=st.integers(-2, 2).map(float)))
    else:  # vertices on one line through a, in the plane
        d = 2
        a, b = draw(arrays(np.float64, (2, 2),
                           elements=st.integers(-3, 3).map(float)))
        t = draw(arrays(np.float64, (m,),
                        elements=st.integers(-4, 4).map(float)))
        V = a + np.outer(t, b)
    y = draw(arrays(np.float64, (d,),
                    elements=st.floats(-100.0, 100.0, allow_nan=False)))
    return V, y


def scale_of(V: np.ndarray, y: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(V))), float(np.max(np.abs(y))))


# The projection is pinned down by the variational inequality, which
# rounding meets to about eps * scale^2; two points that both meet it
# to tau lie within sqrt(2 tau) of each other.  On thin hulls (vertex
# offsets near 1e-7 in the test data) positions therefore agree only to
# about sqrt(eps) * scale, while the inequality itself holds to 1e-14.
POSITION_TOL = 1e-7


class TestNearestHullPoint:
    @given(case=hull_and_point())
    @settings(max_examples=300, deadline=None)
    def test_variational_inequality(self, case):
        # p is the projection iff <v - p, y - p> <= 0 for every vertex v
        V, y = case
        p = nearest_hull_point(V, y)
        assert p.shape == y.shape
        assert np.max((V - p) @ (y - p)) <= 1e-9 * scale_of(V, y) ** 2

    @given(case=hull_and_point())
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, case):
        V, y = case
        p = nearest_hull_point(V, y)
        assert np.allclose(nearest_hull_point(V, p), p,
                           rtol=0.0, atol=POSITION_TOL * scale_of(V, y))

    @given(case=hull_and_point())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, case):
        V, y = case
        p = nearest_hull_point(V, y)
        ref = brute_force_projection(V, y)
        assert np.linalg.norm(p - ref) <= POSITION_TOL * scale_of(V, y)

    def test_one_dimensional_hull_is_a_clip(self):
        V = np.array([[0.5], [-2.0], [3.0], [1.0]])
        for y, expected in ((-7.0, -2.0), (0.25, 0.25), (9.0, 3.0)):
            assert nearest_hull_point(V, np.array([y]))[0] == expected

    def test_a_corral_vertex_tied_on_rounding_does_not_stop_it(self):
        # the box [0, 4]^2 as its corners plus an inside point 1.35e-8
        # above the lower face, and y on that face: a corral vertex of
        # weight near 0 can tie the vertex that should enter, which must
        # not end the loop 1.35e-8 off the answer (2, 0)
        V = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0],
                      [2.0, 1.35475e-8]])
        p = nearest_hull_point(V, np.array([2.0, 0.0]))
        assert np.allclose(p, [2.0, 0.0], rtol=0.0, atol=1e-15)

    def test_single_vertex(self):
        V = np.array([[1.0, -2.0]])
        p = nearest_hull_point(V, np.array([5.0, 5.0]))
        assert np.array_equal(p, V[0])
        assert p is not V[0]

    def test_far_point_reaches_the_support_maximizer(self):
        rng = np.random.default_rng(11)
        for d in (2, 3):
            for _ in range(20):
                P = Polytope(vertices=rng.normal(size=(6, d)))
                u = rng.normal(size=d)
                y = 1e10 * u / np.linalg.norm(u)
                p = P.project(y)
                assert np.linalg.norm(p - P.argmax_support(y)) <= 1e-9

    def test_thin_box_lands_on_the_clip_in_every_vertex_order(self):
        # vertices 1e-7 apart at scale 12: the entering test must come
        # from vertex differences, whose rounding is far below the face
        V = np.array([[12.0, 0.0], [12.0, 1e-7], [12.0000001, 0.0],
                      [12.0000001, 1e-7]])
        y = np.zeros(2)
        ref = np.clip(y, V.min(axis=0), V.max(axis=0))
        for order in itertools.permutations(range(4)):
            p = nearest_hull_point(V[list(order)], y)
            assert np.max(np.abs(p - ref)) <= 1e-14 * scale_of(V, y), order

    def test_square_faces_and_corners(self):
        V = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        cases = {(3.0, 0.5): (1.0, 0.5), (3.0, 4.0): (1.0, 1.0),
                 (0.2, -0.3): (0.2, -0.3), (-0.5, -8.0): (-0.5, -1.0)}
        for y, expected in cases.items():
            p = nearest_hull_point(V, np.array(y))
            assert np.allclose(p, expected, rtol=0.0, atol=1e-14)


class TestProjectL1Ball:
    def test_extreme_scales_stay_in_the_ball(self):
        # |v| / radius overflowed for the subnormal radius, and rounding
        # dropped the largest entry from the support for the large |v|
        for v, r in ((np.array([1e17]), 1.0), (np.array([-1.0]), 2.2e-311),
                     (np.array([3e300, -1.0]), 0.5)):
            p = project_l1_ball(v, r)
            assert np.all(np.isfinite(p))
            assert np.sum(np.abs(p)) <= r

    def test_matches_sort_free_reference(self):
        # the projection is sign(v) * max(|v| - theta, 0) with theta
        # solving sum(max(|v| - theta, 0)) = r; bisect for theta
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=5) * 3.0
            r = float(rng.uniform(0.1, 2.0))
            lo, hi = 0.0, float(np.max(np.abs(v)))
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.sum(np.maximum(np.abs(v) - mid, 0.0)) > r:
                    lo = mid
                else:
                    hi = mid
            ref = np.sign(v) * np.maximum(np.abs(v) - hi, 0.0)
            assert np.allclose(project_l1_ball(v, r), ref, rtol=0.0,
                               atol=1e-12)


@st.composite
def monotone_lcps(draw):
    """(M, q) with M = B B' + K - K' monotone (rank 1, zero and skew
    among them) and q = w0 - M z0 for some z0, w0 >= 0, so the LCP is
    feasible and hence, M being positive semidefinite, solvable.  The
    entries are multiples of 1/8, so M and q are exact: rounding a
    singular B B' can leave it slightly indefinite, and then an LCP
    that probes its null space has no solution at all."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["psd+skew", "rank1", "zero", "skew"]))
    unit = st.integers(-8, 8).map(lambda k: k / 8.0)
    B, K = (draw(arrays(np.float64, (n, n), elements=unit)) for _ in "BK")
    if kind == "rank1":
        B[:, 1:] = 0.0
    M = {"psd+skew": B @ B.T + K - K.T, "rank1": B @ B.T,
         "zero": np.zeros((n, n)), "skew": K - K.T}[kind]
    z0, w0 = (np.maximum(draw(arrays(np.float64, (n,), elements=unit)), 0.0)
              for _ in "zw")
    return M, w0 - M @ z0


class TestLemke:
    @given(case=monotone_lcps())
    @settings(max_examples=100, deadline=None)
    def test_monotone_lcp_is_solved(self, case):
        M, q = case
        z, _ = lemke(M, q)
        assert z is not None
        w = q + M @ z
        scale = 1.0 + np.abs(q).max() + np.abs(M).max() * np.abs(z).max()
        assert np.all(z >= 0.0)
        assert np.all(w >= -1e-9 * scale)
        assert abs(z @ w) <= 1e-9 * scale * (1.0 + np.abs(z).sum())

    @pytest.mark.parametrize("l1", [True, False])
    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_tied_q_of_the_tail_probe(self, n, l1):
        # q holds n equal entries (-1 on l1; -1, 1 and 0 on linf), so
        # the first pivot and the later ratio tests tie; ties go by the
        # rows of B^-1, which reach the complementary point in 2 pivots
        # on l1 and 4 on linf whatever n (a first-row rule takes n + 1
        # on l1)
        Q, q = _gap_lcp(tail_operator(n).M, np.zeros(n), np.ones(n), l1)
        z, pivots = lemke(Q, q)
        assert pivots == (2 if l1 else 4)
        w = q + Q @ z
        assert np.all(z >= 0.0) and np.all(w >= -1e-12)
        assert abs(z @ w) <= 1e-12

    def test_nonnegative_q_needs_no_pivot(self):
        z, pivots = lemke(np.eye(3), np.array([0.0, 1.0, 2.0]))
        assert pivots == 0 and np.array_equal(z, np.zeros(3))

    def test_infeasible_lcp_ends_on_a_ray(self):
        # w = -1 + 0 z has no solution: z enters on a zero column, in
        # each precision that lemke tries
        z, pivots = lemke(np.zeros((1, 1)), np.array([-1.0]))
        assert z is None and pivots == 3


@st.composite
def tied_lcps(draw):
    """(Q, q) of an LCP whose q ties: entries drawn from a few values,
    some nudged by about the rounding tolerance; linprog's (c, -b, b),
    whose equality rows come as opposite pairs; or the tail probe of the
    gap's LCP on l1 or linf."""
    kind = draw(st.sampled_from(["repeated", "lp", "tail"]))
    if kind == "tail":
        n = draw(st.integers(1, 64))
        return _gap_lcp(tail_operator(n).M, np.zeros(n), np.ones(n),
                        draw(st.booleans()))
    unit = st.integers(-8, 8).map(lambda k: k / 8.0)
    if kind == "lp":
        k, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        A = draw(arrays(np.float64, (k, m), elements=unit))
        b = draw(arrays(np.float64, (k,), elements=unit))
        c = draw(arrays(np.float64, (m,), elements=unit))
        Z = np.zeros((k, k))
        return (np.block([[np.zeros((m, m)), -A.T, A.T], [A, Z, Z],
                          [-A, Z, Z]]), np.concatenate([c, -b, b]))
    N = draw(st.integers(1, 12))
    values = draw(st.lists(unit, min_size=1, max_size=3))
    q = np.array([draw(st.sampled_from(values)) for _ in range(N)])
    # nudges across the tie test's edge, tol max |b| with tol = 1e4 eps
    nudge = draw(arrays(np.float64, (N,), elements=st.sampled_from(
        [0.0, 0.0, 0.5, 1.0, 1.5, -1.0])))
    q = q + nudge * 1e4 * np.finfo(float).eps * np.abs(q).max()
    return draw(arrays(np.float64, (N, N), elements=unit)), q


class TestFirstRow:
    @given(case=tied_lcps(),
           precision=st.sampled_from([(np.float64, np.float64),
                                      (np.longdouble, np.float64),
                                      (np.longdouble, np.longdouble)]))
    @settings(max_examples=150, deadline=None)
    def test_it_is_the_lexicographic_rule_s_row(self, case, precision):
        # z0 enters at _lex_min's row of (b, B^-1) with B^-1 = I, in each
        # precision (and tolerance) lemke pivots in; after that pivot
        # z0's column is the unit vector of its row
        Q, q = case
        dtype, eps = precision
        N = len(q)
        sq = np.abs(q).max(initial=0.0) or 1.0
        sQ = np.abs(Q).max(initial=0.0) or 1.0
        T = np.hstack([np.eye(N), -Q / sQ, -np.ones((N, 1)),
                       q[:, None] / sq]).astype(dtype)
        tol = 1e4 * np.finfo(eps).eps
        row = _lex_min(T[:, -1], T, np.arange(N), np.ones(N), tol)
        _pivot(T, 1, tol)
        assert np.array_equal(T[:, 2 * N], np.eye(N)[row])


class TestLinprog:
    def test_a_simplex_lp_and_its_dual(self):
        # min lam_1 + 2 lam_2 + 3 lam_3 on the simplex: lam = e_1, u = 1
        lam, u, certified = linprog(np.array([1.0, 2.0, 3.0]),
                                    np.ones((1, 3)), np.array([1.0]))
        assert certified
        assert np.allclose(lam, [1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(u, [1.0], atol=1e-15)

    def test_scales_apart_are_certified(self):
        # rows and costs 1e6 apart: lam = (1/2, 1/2) has cost 5e5 + 5e-7
        A = np.array([[1e3, -1e3], [1.0, 1.0]])
        c = np.array([1e6, 1e-6])
        lam, u, certified = linprog(c, A, np.array([0.0, 1.0]))
        assert certified
        assert c @ lam == pytest.approx(5e5 + 5e-7, rel=1e-14)
        assert u @ np.array([0.0, 1.0]) == pytest.approx(c @ lam, rel=1e-14)

    def test_redundant_rows_and_columns(self):
        # a repeated row and a repeated column: the dual is not unique
        # and every basis is degenerate
        A = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
        lam, u, certified = linprog(np.array([2.0, 2.0, 3.0]), A,
                                    np.array([2.0, 2.0]))
        assert certified
        assert np.allclose(lam, [0.0, 0.0, 1.0], atol=1e-15)

    def test_a_zero_cost_is_certified_by_the_zero_dual(self):
        # every feasible lam is optimal: a dual the pivots leave at
        # 1e-17 must not fail against the scale of c = 0
        A = np.array([[0.0, 0.0], [-1.0, -1.5], [1.0, 1.0]])
        lam, u, certified = linprog(np.zeros(2), A,
                                    np.array([0.0, -1.1875, 1.0]))
        assert certified
        assert np.allclose(lam, [0.625, 0.375], atol=1e-15)
        assert not u.any()

    @pytest.mark.parametrize("c, A, b", [
        ([1.0, 1.0], [[1.0, 1.0]], [-1.0]),  # infeasible
        ([-1.0, 0.0], [[1.0, -1.0]], [0.0]),  # unbounded
        ([1.0, np.nan], [[1.0, 1.0]], [1.0]),  # not finite
    ])
    def test_no_solution_is_not_certified(self, c, A, b):
        assert linprog(np.array(c), np.array(A), np.array(b)) == (
            None, None, False)


# Lemke's pivots with the ratio test on arrays, as the scalar one reads
# them: the reference for its bits


def array_pivot(T, max_pivots, tol):
    N = len(T)
    b = T[:, -1]
    basis = np.arange(N)
    basic = (1 << N) - 1
    seen = set()
    prod = np.empty_like(T)
    enter = 2 * N
    r = r0 = int(np.flatnonzero(b - b.min() <= tol * np.abs(b).max()).max())
    for pivots in range(1, max_pivots + 1):
        d = T[:, enter].copy()
        T[r] /= d[r]
        d[r] = 0.0
        T -= np.multiply(d[:, None], T[r], out=prod)
        leave, basis[r] = int(basis[r]), enter
        if leave == 2 * N:
            x = np.zeros(2 * N + 1)
            x[basis] = b
            return np.maximum(x[N:2 * N], 0.0), pivots
        basic ^= (1 << leave) | (1 << enter)
        if basic in seen:
            return None, pivots
        seen.add(basic)
        enter = leave + N if leave < N else leave - N
        r = array_ratio_test(b, T, T[:, enter], r0, tol)
        if r is None:
            return None, pivots
    return None, max_pivots


def array_ratio_test(b, T, d, r0, tol):
    pos = d > tol * np.abs(d).max()
    rows = np.flatnonzero(pos)
    if not rows.size:
        return None
    br, dr = b[rows], d[rows]
    step = max(((br + 10.0 * tol) / dr).min(), 0.0)
    if pos[r0] and b[r0] - step * d[r0] <= tol * np.abs(b).max():
        return r0
    within = br / dr <= step
    rows = rows[within]
    if rows.size == 1:
        return int(rows[0])
    dr = dr[within]
    return _lex_min(b, T, rows[dr >= 0.1 * dr.max()], d, tol)


@st.composite
def scaled_gap_lcps(draw):
    """The l1 gap LCP of D M D, for M = B B' + K - K' and a diagonal D
    of entries 10^k, |k| <= 9: scales far apart, which send lemke to its
    long double runs."""
    n = draw(st.integers(1, 8))
    unit = st.floats(-1.0, 1.0)
    B, K = (draw(arrays(np.float64, (n, n), elements=unit)) for _ in "BK")
    D = 10.0 ** draw(arrays(np.float64, (n,), elements=st.floats(-9.0, 9.0)))
    x, xs = (draw(arrays(np.float64, (n,), elements=unit)) for _ in "xy")
    return _gap_lcp(D[:, None] * (B @ B.T + K - K.T) * D, x, xs, True)


def lp_lcp(A, b, c):
    """linprog's LCP of min c'lam, A lam = b, lam >= 0: its equality rows
    come as opposite pairs, whose ties reach _lex_min."""
    k, m = A.shape
    Z = np.zeros((k, k))
    return (np.block([[np.zeros((m, m)), -A.T, A.T], [A, Z, Z], [-A, Z, Z]]),
            np.concatenate([c, -b, b]))


@st.composite
def integer_lp_lcps(draw):
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    ints = st.integers(-3, 3).map(float)
    return lp_lcp(*(draw(arrays(np.float64, shape, elements=ints))
                    for shape in ((k, m), (k,), (m,))))


def same_as_the_array_pivots(Q, q):
    """lemke's (z, pivots) at (Q, q), asserted equal, bytes included, to
    those with the array ratio test."""
    z, pivots = lemke(Q, q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_pivot", array_pivot)
        z_ref, pivots_ref = lemke(Q, q)
    assert pivots == pivots_ref
    assert (z is None) == (z_ref is None)
    assert z is None or z.tobytes() == z_ref.tobytes()


class TestScalarPivots:
    @given(case=scaled_gap_lcps() | integer_lp_lcps())
    @settings(max_examples=150, deadline=None)
    def test_they_match_the_array_pivots_bit_for_bit(self, case):
        same_as_the_array_pivots(*case)

    def test_the_draws_reach_the_reruns_and_the_ties(self, monkeypatch):
        # the scaled gap LCPs reach the long double runs, the LP ones
        # the ties of _lex_min, and the bits still match
        runs, ties = [], []
        monkeypatch.setattr(solvers, "_pivot", lambda T, *a: runs.append(
            T.dtype) or _pivot(T, *a))
        monkeypatch.setattr(solvers, "_lex_min", lambda *a: ties.append(
            a) or _lex_min(*a))
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            B, K = rng.standard_normal((2, n, n))
            D = 10.0 ** rng.uniform(-9.0, 9.0, n)
            x, xs = rng.uniform(-1.0, 1.0, (2, n))
            same_as_the_array_pivots(*_gap_lcp(
                D[:, None] * (B @ B.T + K - K.T) * D, x, xs, True))
        assert np.longdouble in runs
        for _ in range(60):
            k, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            A = rng.integers(-3, 4, (k, m)).astype(float)
            b, c = (rng.integers(-3, 4, size).astype(float) for size in (k, m))
            same_as_the_array_pivots(*lp_lcp(A, b, c))
        assert ties

    def test_a_nan_ends_the_run(self):
        # in b the first row is read off b; at the ratio test a NaN in b
        # (even in a row without a pivot) or in d ends the pivots
        T = np.hstack([np.eye(2), -np.eye(2), -np.ones((2, 1)),
                       np.array([[np.nan], [-1.0]])])
        assert _pivot(T, 10, 1e-12) == (None, 0)
        assert lemke(np.eye(2), np.array([np.nan, -1.0])) == (None, 0)
        b, d = np.array([1.0, np.nan]), np.array([1.0, -1.0])
        T = np.hstack([np.eye(2), d[:, None], b[:, None]])
        assert _ratio_test(b, T, d, 0, 1e-12) is None
        assert _ratio_test(d, T, b, 0, 1e-12) is None
        assert _ratio_test(d, T, d, 0, 1e-12) == 0

    def test_z_is_rounded_to_double_before_its_clip(self):
        # z = -1e-4000 in long double rounds to -0.0, which the clip
        # reads as np.maximum does: +0.0
        T = np.array([[1.0, -1.0, -1.0, 0.0]], dtype=np.longdouble)
        T[0, -1] = np.longdouble("1e-4000")
        z, pivots = _pivot(T.copy(), 10, 1e-12)
        z_ref, _ = array_pivot(T.copy(), 10, 1e-12)
        assert pivots == 2 and z.tobytes() == z_ref.tobytes()
        assert z.dtype == np.float64 and not np.signbit(z).any()
