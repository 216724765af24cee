"""Quasidensity gap, the Euclidean resolvent oracle, fuzzy variants."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import quasidensity
from monotone_lab.solvers import lemke
from monotone_lab import (
    DualPair,
    FiniteGraph,
    HalfSqNorm,
    IndicatorFn,
    InverseOp,
    Linear,
    MonotoneOperator,
    NormFn,
    NormTag,
    NormalCone,
    PairedPoint,
    ResolventError,
    Shift,
    Subdifferential,
    box,
    fuzzy_gap_dual,
    fuzzy_gap_primal,
    gap,
    gap_euclidean_oracle,
    gaps,
    interval,
    inverse,
    is_quasidense,
    r_objective,
    singleton,
    tail_operator,
)

PAIR1 = DualPair(1, NormTag.L2)
ABS_OP = Subdifferential(pair=PAIR1, f=NormFn(1))
ORIGIN = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [0.0]),))


def pp(x, xs):
    return PairedPoint(np.atleast_1d(np.asarray(x, float)),
                       np.atleast_1d(np.asarray(xs, float)))


class TestGap:
    def test_origin_graph_positive_probe(self):
        # r((0,0); (1,1)) = 1/2 + 1/2 + 1 = 2
        rep = gap(ORIGIN, pp(1.0, 1.0))
        assert rep.status == "exact"
        assert rep.value == pytest.approx(2.0)

    def test_origin_graph_antidiagonal_probe(self):
        # r((0,0); (1,-1)) = 1/2 + 1/2 - 1 = 0
        rep = gap(ORIGIN, pp(1.0, -1.0))
        assert rep.value == pytest.approx(0.0)

    def test_abs_subdifferential_probe(self):
        rep = gap(ABS_OP, pp(0.0, 2.0))
        assert rep.status == "exact"
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert rep.witness.x[0] == pytest.approx(1.0)
        assert rep.witness.xstar[0] == pytest.approx(1.0)

    def test_witness_value_matches_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = pp(rng.normal() * 2, rng.normal() * 2)
            rep = gap(ABS_OP, t)
            assert rep.value == pytest.approx(
                r_objective(ABS_OP, t, rep.witness.x, rep.witness.xstar),
                abs=1e-10)

    def test_gap_is_nonnegative_for_monotone_graphs(self):
        rng = np.random.default_rng(4)
        pair2 = DualPair(2)
        S = Subdifferential(pair=pair2, f=HalfSqNorm(2))
        for _ in range(50):
            t = PairedPoint(rng.normal(size=2) * 3, rng.normal(size=2) * 3)
            assert gap(S, t).value >= -1e-12

    def test_sampled_fallback_is_labelled_sampled(self):
        # |x| on the l1 pair: no finite graph, no Euclidean resolvent
        # oracle, no linear QP; the bound is a minimum over samples
        S = Subdifferential(pair=DualPair(1, NormTag.L1), f=NormFn(1))
        rep = gap(S, pp(0.0, 2.0), budget=20, seed=0)
        assert rep.method == "sampled"
        assert rep.status == "upper_bound"


    @pytest.mark.parametrize("norm", list(NormTag))
    def test_a_probe_of_the_wrong_size_is_refused(self, norm):
        # on l1 the scan once broadcast a size-1 probe against 2-D rows
        S = NormalCone(pair=DualPair(2, norm),
                       f=IndicatorFn(box([-1.0, -1.0], [1.0, 1.0])))
        q = pp(0.5, 0.2)
        with pytest.raises(ValueError, match="probe has shape"):
            gap(S, q)
        with pytest.raises(ValueError, match="probe has shape"):
            gaps(S, [pp([0.5, 0.5], [0.2, 0.2]), q])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("side", ["x", "xstar"])
    @pytest.mark.parametrize("kind", ["linear", "norm"])
    @pytest.mark.parametrize("norm", list(NormTag))
    def test_a_non_finite_probe_is_refused(self, norm, kind, side, bad):
        # ((inf, 0), (1, 0)) once gave a NaN "exact" gap of the identity
        # on l2, a numpy error from the LCP on l1 and a ResolventError
        # for the l2 norm's subdifferential on l1
        pair = DualPair(2, norm)
        S = (Linear(pair=pair, M=np.eye(2)) if kind == "linear"
             else Subdifferential(pair=pair, f=NormFn(2)))
        v, u = [bad, 0.0], [1.0, 0.0]
        q = pp(v, u) if side == "x" else pp(u, v)
        with pytest.raises(ValueError, match="non-finite"):
            gap(S, q)
        with pytest.raises(ValueError, match="non-finite"):
            gaps(S, [pp([0.5, 0.5], [0.2, 0.2]), q])


class TestNonMonotoneLinear:
    @pytest.mark.parametrize("M", [[[-1.0]], [[1.0, 0.0], [0.0, -1.0]],
                                   [[0.0, 2.0], [0.0, 0.0]]])
    @pytest.mark.parametrize("norm", list(NormTag))
    def test_gap_is_sampled(self, M, norm):
        n = len(M)
        S = Linear(pair=DualPair(n, norm), M=np.array(M))
        assert not S.monotone
        rep = gap(S, PairedPoint(np.full(n, 0.5), np.ones(n)),
                  budget=20, seed=0)
        assert (rep.status, rep.method) == ("upper_bound", "sampled")
        assert rep.value == pytest.approx(r_objective(
            S, PairedPoint(np.full(n, 0.5), np.ones(n)), rep.witness.x,
            rep.witness.xstar), abs=0)

    @pytest.mark.parametrize("M", [
        [[0.0, 1.0], [-1.0, 0.0]],  # skew
        [[1.0, 0.7], [-0.7, 0.3]],  # PSD plus skew
        [[1.0, 1.0], [1.0, 1.0]],  # singular PSD
        np.triu(np.ones((16, 16))),  # tail map
        np.outer([1e8, 1.0, 3.0], [1e8, 1.0, 3.0]),  # rank 1, badly scaled
        np.full((3, 3), 2.5e-250),  # its squared entries underflow
    ])
    def test_monotone_maps_keep_their_exact_paths(self, M):
        M = np.asarray(M, float)
        n = M.shape[0]
        target = PairedPoint(np.full(n, 0.5), np.ones(n))
        for norm, method in ((NormTag.L2, "resolvent"), (NormTag.L1, "qp"),
                             (NormTag.LINF, "qp")):
            S = Linear(pair=DualPair(n, norm), M=M)
            assert S.monotone
            assert gap(S, target).method == method


@st.composite
def linear_witness_cases(draw):
    """A monotone M on an l1/linf pair and a probe whose gap is 0 at a
    known graph point.  On l1: x = s + a, x* = Ms - ||a||_1 sign(a); on
    linf the dual construction x* = Ms - a, x = s + ||a||_1 sign(a)."""
    n = draw(st.integers(1, 24))
    norm = draw(st.sampled_from([NormTag.L1, NormTag.LINF]))
    kind = draw(st.sampled_from(["psd+skew", "rank1", "zero", "triu"]))
    scale = draw(st.sampled_from([1e-3, 1.0, 100.0]))
    unit = st.floats(-1.0, 1.0)
    B, K = (draw(arrays(np.float64, (n, n), elements=unit)) for _ in "BK")
    u = draw(arrays(np.float64, (n,), elements=unit))
    M = {"psd+skew": B @ B.T / n + 0.5 * (K - K.T), "rank1": np.outer(u, u),
         "zero": np.zeros((n, n)), "triu": np.triu(np.ones((n, n)))}[kind]
    s = draw(arrays(np.float64, (n,), elements=unit))
    a = draw(arrays(np.float64, (n,), elements=st.floats(0.2, 1.0)))
    a = a * draw(arrays(np.float64, (n,), elements=st.sampled_from([-1.0,
                                                                   1.0])))
    big = np.abs(a).sum() * np.sign(a)
    x, xs = (s + a, M @ s - big) if norm is NormTag.L1 else (s + big,
                                                             M @ s - a)
    return Linear(pair=DualPair(n, norm), M=M), scale * x, scale * xs, scale


class TestLinearQp:
    @given(case=linear_witness_cases())
    # r is flat along a face here: an iterative solve can stop at
    # r = 1.5e-7, short of the complementary point
    @example(case=(Linear(pair=DualPair(2, NormTag.L1),
                          M=np.diag([1.9073486328125e-06, 0.0])),
                   np.array([-0.5, -1.0]), np.array([1.5, 1.5]), 1.0))
    # M = 0 at a small scale: the linf LCP has a zero block, and a
    # solve that ends at s = x reads r = 8e-8
    @example(case=(Linear(pair=DualPair(2, NormTag.LINF), M=np.zeros((2, 2))),
                   np.array([6e-4, 6e-4]), np.array([2e-4, 2e-4]), 1e-3))
    @settings(max_examples=150, deadline=None)
    def test_witness_probe_gap_is_zero(self, case):
        S, x, xs, scale = case
        t = PairedPoint(x, xs)
        rep = gap(S, t)
        assert (rep.status, rep.method) == ("upper_bound", "qp")
        assert 0.0 <= rep.value <= 1e-9 * (1.0 + scale * scale)
        w = rep.witness
        assert np.array_equal(S.M @ w.x, w.xstar)
        assert rep.value == max(r_objective(S, t, w.x, w.xstar), 0.0)
        # the solve starts from s0 of the rescaled probe, equal up to a bit
        s0 = 0.5 * (x + xs)
        assert rep.value <= r_objective(S, t, s0, S.M @ s0) + 1e-12 * (
            1.0 + scale * scale)


class TestLinearQpWithoutLemkePoint:
    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.LINF])
    def test_a_solve_that_finds_no_z_leaves_the_start_alone(self, norm,
                                                             monkeypatch):
        # a run that ends on a ray or at the pivot cap: the report is r
        # at the graph point of the rescaled start s0 = c (x + x*)/(2c)
        monkeypatch.setattr(quasidensity, "lemke",
                            lambda Q, q, max_pivots: (None, max_pivots))
        rng = np.random.default_rng(5)
        B, K = rng.normal(size=(2, 4, 4))
        S = Linear(pair=DualPair(4, norm), M=B @ B.T + K - K.T)
        x, xs = rng.uniform(-3.0, 3.0, (2, 4))
        t = PairedPoint(x, xs)
        rep, pivots = quasidensity.gap_linear_qp(S, t, max_pivots=7)
        c = np.abs(np.concatenate([x, xs])).max()
        s0 = c * (0.5 * (x / c + xs / c))
        assert pivots == 7
        assert (rep.status, rep.method) == ("upper_bound", "qp")
        assert np.array_equal(rep.witness.x, s0)
        assert np.array_equal(rep.witness.xstar, S.M @ s0)
        assert rep.value == max(float(r_objective(S, t, s0, S.M @ s0)), 0.0)


def _lcp_rows(monkeypatch) -> list:
    """The row counts of the LCPs ``quasidensity`` hands to lemke."""
    rows = []

    def spy(Q, q, max_pivots):
        rows.append(len(q))
        return lemke(Q, q, max_pivots)

    monkeypatch.setattr(quasidensity, "lemke", spy)
    return rows


@st.composite
def invertible_linf_cases(draw):
    """A monotone M on linf, of largest entry 1 and condition at most
    1e11, and a probe: psd+skew, the tail map, or U diag(sigma) U' with
    sigma log-spaced from 1 down to as low as 1e-10, with or without a
    1e-3 skew part."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["psd+skew", "tail", "ill"]))
    unit = st.floats(-1.0, 1.0)
    B, K = (draw(arrays(np.float64, (n, n), elements=unit)) for _ in "BK")
    if kind == "psd+skew":
        M = B @ B.T / n + 0.5 * (K - K.T)
    elif kind == "tail":
        M = np.triu(np.ones((n, n)))
    else:
        U = np.linalg.qr(B + n * np.eye(n))[0]
        low = draw(st.floats(0.0, 10.0))
        skew = draw(st.sampled_from([0.0, 1e-3]))
        M = U @ np.diag(np.logspace(0.0, -low, n)) @ U.T + skew * (K - K.T)
    scale = draw(st.sampled_from([1e-3, 1.0, 100.0]))
    x, xs = scale * draw(arrays(np.float64, (2, n), elements=unit))
    return M / (np.abs(M).max() or 1.0), x, xs, scale


class TestLinfGapByTheInverse:
    @given(case=invertible_linf_cases())
    @settings(max_examples=100, deadline=None)
    def test_it_is_the_l1_gap_of_the_inverse(self, case):
        # r of M on linf at (x, x*) is r of M^-1 on l1 at (x*, x); M^-1
        # rounds by the condition of M, and so do the two solves
        M, x, xs, scale = case
        n = len(x)
        S = Linear(pair=DualPair(n, NormTag.LINF), M=M)
        assume(S.monotone and np.linalg.cond(M) <= 1e11)
        with pytest.MonkeyPatch.context() as mp:
            rows = _lcp_rows(mp)
            rep = gap(S, PairedPoint(x, xs))
        assert rows == [2 * n]
        inv = gap(Linear(pair=DualPair(n, NormTag.L1), M=np.linalg.inv(M)),
                  PairedPoint(xs, x))
        assert (rep.status, rep.method) == ("upper_bound", "qp")
        assert np.array_equal(S.M @ rep.witness.x, rep.witness.xstar)
        c = np.abs(np.concatenate([x, xs])).max()
        assert abs(rep.value - inv.value) <= (
            1e4 * np.finfo(float).eps * (1.0 + c * c) * np.linalg.cond(M))

    @pytest.mark.parametrize("M", [
        np.zeros((3, 3)),
        # rank 2 and positive semidefinite
        np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]]),
        # a skew map of odd size plus w w', w orthogonal to the skew kernel
        np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
        + np.outer([1.0, 1.0, -1.0], [1.0, 1.0, -1.0]),
        # near rank one: an inverse of entries near 3e14 loses its digits
        0.25 * np.ones((2, 2)) + 3e-8 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
    ], ids=["zero", "rank-deficient-psd", "singular-skew+psd", "near-E"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 100.0])
    def test_a_map_without_a_usable_inverse_takes_the_4n_lcp(
            self, M, scale, monkeypatch):
        # the probe of test_witness_probe_gap_is_zero, gap 0 at (s, Ms)
        n = len(M)
        S = Linear(pair=DualPair(n, NormTag.LINF), M=M)
        assert S.monotone
        rng = np.random.default_rng(3)
        rows = _lcp_rows(monkeypatch)
        for _ in range(10):
            s = rng.uniform(-1.0, 1.0, n)
            a = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
            t = PairedPoint(scale * (s + np.abs(a).sum() * np.sign(a)),
                            scale * (M @ s - a))
            rows.clear()
            rep = gap(S, t)
            assert 4 * n in rows
            assert (rep.status, rep.method) == ("upper_bound", "qp")
            assert 0.0 <= rep.value <= 1e-9 * (1.0 + scale * scale)
            w = rep.witness
            assert np.array_equal(S.M @ w.x, w.xstar)
            assert rep.value == max(r_objective(S, t, w.x, w.xstar), 0.0)


class TestEuclideanOracle:
    def test_algebraic_identity(self):
        # a^2/2 + b^2/2 + <a, b> = ||a + b||^2 / 2
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            lhs = 0.5 * a @ a + 0.5 * b @ b + a @ b
            rhs = 0.5 * float(np.linalg.norm(a + b)) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_general_gap_path(self):
        rng = np.random.default_rng(1)
        cone = NormalCone(pair=PAIR1, f=IndicatorFn(interval(-1.0, 1.0)))
        for S in (ABS_OP, cone, Subdifferential(pair=PAIR1, f=HalfSqNorm(1))):
            for _ in range(40):
                t = pp(rng.normal() * 3, rng.normal() * 3)
                a = gap(S, t).value
                b = gap_euclidean_oracle(S, t).value
                assert a == pytest.approx(b, abs=1e-10)

    def test_rejects_non_euclidean_pair(self):
        with pytest.raises(ValueError):
            gap_euclidean_oracle(tail_operator(2), PairedPoint(
                np.zeros(2), np.zeros(2)))


class TestFuzzy:
    def test_dual_fuzz_absorbs_mismatch(self):
        # graph {(1, -2)}, w = 1, Wt = [-3, -1]: the primal term and the
        # cross terms vanish and -2 already lies in Wt, so the value is 0
        G = FiniteGraph(pair=PAIR1, points=(PairedPoint([1.0], [-2.0]),))
        rep = fuzzy_gap_dual(G, np.array([1.0]),
                             interval(-3.0, -1.0))
        assert rep.status == "exact"
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_primal_fuzz_distance_term(self):
        # graph {(0,0)}, W = [2,3], w* = 0: only dist(0, W)^2/2 = 2 remains
        rep = fuzzy_gap_primal(ORIGIN, interval(2.0, 3.0),
                               np.array([0.0]))
        assert rep.value == pytest.approx(2.0, abs=1e-12)

    def test_singleton_fuzz_reduces_to_plain_gap(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            w = rng.normal() * 2
            ws = rng.normal() * 2
            plain = gap(ABS_OP, pp(w, ws)).value
            dual = fuzzy_gap_dual(ABS_OP, np.array([w]),
                                  singleton(np.array([ws]))).value
            primal = fuzzy_gap_primal(ABS_OP, singleton(np.array([w])),
                                      np.array([ws])).value
            assert dual == pytest.approx(plain, abs=1e-12)
            assert primal == pytest.approx(plain, abs=1e-12)

    def test_dual_fuzz_objective_is_nonnegative(self):
        # the value is bounded below by (||s-w|| - dist(s*, Wt))^2 / 2
        rng = np.random.default_rng(13)
        G = FiniteGraph(pair=PAIR1,
                        points=(PairedPoint([0.0], [0.5]),
                                PairedPoint([1.0], [2.0])))
        for _ in range(40):
            w = np.array([rng.normal() * 3])
            lo = rng.normal() * 2
            Wt = interval(lo, lo + abs(rng.normal()))
            assert fuzzy_gap_dual(G, w, Wt).value >= -1e-12

    def test_fuzzy_below_plain_on_resolvent_path(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.normal() * 2
            ws = rng.normal() * 2
            plain = gap(ABS_OP, pp(w, ws)).value
            fuzz = fuzzy_gap_dual(
                ABS_OP, np.array([w]),
                interval(ws - 0.5, ws + 0.5)).value
            assert fuzz <= plain + 1e-10

    def test_search_is_labelled_apart_from_the_exact_oracle(self):
        # the fuzzy scan of the sample and the orbit is an upper bound,
        # while the plain gap of the same map is the exact oracle
        w, ws = np.array([0.3]), np.array([1.4])
        dual = fuzzy_gap_dual(ABS_OP, w, interval(1.0, 2.0))
        primal = fuzzy_gap_primal(ABS_OP, interval(0.0, 1.0), ws)
        for rep in (dual, primal):
            assert (rep.status, rep.method) == ("upper_bound",
                                                "fuzzy_search")
        assert gap(ABS_OP, pp(w, ws)).method == "resolvent"


CONE_OP = NormalCone(pair=PAIR1, f=IndicatorFn(interval(-1.0, 1.0)))
IDENTITY = Linear(pair=PAIR1, M=np.array([[1.0]]))
SKEW2 = Linear(pair=DualPair(2), M=np.array([[0.0, 1.0], [-1.0, 0.0]]))
GRAPH1 = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [0.5]),
                                         PairedPoint([1.0], [2.0]),
                                         PairedPoint([-1.0], [-1.0])))


class _NoGraph(MonotoneOperator):
    """An operator with no reachable graph point."""

    def _resolve(self, z, lam):
        raise ResolventError("no graph point")

    def graph_rows(self, budget, seed):
        return np.empty((0, self.pair.dim)), np.empty((0, self.pair.dim))


class TestPrimalFuzzOnInverse:
    """fuzzy_gap_primal runs fuzzy_gap_dual on S^{-1}; its reports are
    pinned to the mirrored routine it replaced (the skew map's to the
    fixed-point orbit that replaced its search)."""

    @pytest.mark.parametrize("S, W, ws, value, status, method, wit", [
        (GRAPH1, interval(2.0, 3.0), [0.0], 0.5, "exact", "enumeration",
         ([1.0], [2.0])),
        (ABS_OP, interval(0.0, 1.0), [1.4], 0.0, "upper_bound",
         "fuzzy_search", ([1.4], [1.0])),
        (CONE_OP, interval(0.5, 2.0), [0.3], 2.7755575615628914e-17,
         "upper_bound", "fuzzy_search", ([1.0], [0.30000000000000004])),
        (IDENTITY, interval(-1.0, 0.0), [0.5], 0.0, "upper_bound",
         "fuzzy_search", ([0.25], [0.25])),
        # the fixed-point orbit reaches (x, Mx) = ((0.2, 0.3), w*), x in W
        (SKEW2, box(np.array([-0.5, 0.0]), np.array([0.5, 1.0])),
         [0.3, -0.2], 7.958078640513459e-14, "upper_bound", "fuzzy_search",
         ([0.20000000000004547, 0.3000000000000682],
          [0.3000000000000682, -0.20000000000004547])),
    ])
    def test_pinned(self, S, W, ws, value, status, method, wit):
        rep = fuzzy_gap_primal(S, W, np.array(ws))
        assert (rep.status, rep.method) == (status, method)
        assert rep.value == pytest.approx(value, rel=1e-12, abs=1e-15)
        assert rep.witness.x.tolist() == pytest.approx(wit[0], rel=1e-12)
        assert rep.witness.xstar.tolist() == pytest.approx(wit[1],
                                                           rel=1e-12)
        # a point of G(S), not of G(S^-1)
        assert S.contains(rep.witness.x, rep.witness.xstar) == "yes"

    def test_no_witness_stays_none(self):
        rep = fuzzy_gap_primal(_NoGraph(pair=PAIR1), interval(0.0, 1.0),
                               np.array([0.5]))
        assert rep.witness is None
        assert rep.value == np.inf

    def test_shape_error_names_wstar(self):
        with pytest.raises(ValueError, match="wstar"):
            fuzzy_gap_primal(ABS_OP, interval(0.0, 1.0), np.zeros(2))


class TestInverseGaps:
    def test_l1_finite_graph_keeps_its_norms(self):
        # S^-1 lives on the linf/l1 pair, so its gap at (x*, x) is the
        # gap of S at (x, x*), by enumeration
        pts = (pp([0.0, 0.0], [0.0, 0.0]), pp([1.0, -0.5], [0.5, 0.25]),
               pp([0.2, 0.6], [-0.4, 1.1]))
        S = FiniteGraph(pair=DualPair(2, NormTag.L1), points=pts)
        x, xs = np.array([0.5, -0.3]), np.array([0.2, 0.9])
        a = gap(S, pp(x, xs))
        b = gap(inverse(S), pp(xs, x))
        assert inverse(S).pair.primal_norm is NormTag.LINF
        assert (a.status, a.method) == (b.status, b.method) == (
            "exact", "enumeration")
        assert a.value == b.value == pytest.approx(0.555, abs=1e-12)
        assert np.array_equal(b.witness.x, a.witness.xstar)
        assert np.array_equal(b.witness.xstar, a.witness.x)


PAIRS = [NormTag.L1, NormTag.L2, NormTag.LINF]
COORD = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def graph_and_probe(draw):
    """A FiniteGraph of 1-4 points in 1-3 dimensions on one of the three
    pairs, and a probe (x, x*)."""
    n = draw(st.integers(1, 3))
    norm = draw(st.sampled_from(PAIRS))
    vec = arrays(np.float64, (n,), elements=COORD)
    pts = draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=4))
    S = FiniteGraph(pair=DualPair(n, norm),
                    points=tuple(PairedPoint(a, b) for a, b in pts))
    return S, draw(vec), draw(vec)


class TestInverseSymmetry:
    @settings(max_examples=60, deadline=None)
    @given(graph_and_probe())
    def test_finite_graph_gap(self, case):
        S, x, xs = case
        a = gap(S, PairedPoint(x, xs))
        b = gap(inverse(S), PairedPoint(xs, x))
        assert a.value == b.value
        assert (a.status, b.status) == ("exact", "exact")

    @settings(max_examples=40, deadline=None)
    @given(graph_and_probe(), st.floats(0.0, 1.0))
    def test_primal_fuzz_is_dual_fuzz_of_the_inverse(self, case, width):
        S, x, xs = case
        W = box(x, x + width)
        primal = fuzzy_gap_primal(S, W, xs)
        dual = fuzzy_gap_dual(inverse(S), xs, W)
        assert primal.value == dual.value
        assert np.array_equal(primal.witness.x, dual.witness.xstar)
        assert np.array_equal(primal.witness.xstar, dual.witness.x)

    @pytest.mark.parametrize("S", [ABS_OP, CONE_OP, IDENTITY, SKEW2,
                                   tail_operator(3)])
    def test_double_inverse_is_the_operator(self, S):
        inv = inverse(S)
        assert isinstance(inv, InverseOp)
        assert inverse(inv) is S
        assert inverse(inverse(inv)).inner is S

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, (2, n), elements=COORD))))
    def test_monotone_linear_on_l2(self, case):
        B, K, probe = case
        n = B.shape[0]
        S = Linear(pair=DualPair(n), M=B @ B.T + K - K.T)
        # rounding in B B^T + K - K^T can leave M just short of monotone
        assume(S.monotone)
        x, xs = probe
        a = gap(S, PairedPoint(x, xs))
        b = gap(inverse(S), PairedPoint(xs, x))
        assert a.method == b.method == "resolvent"
        assert a.value == b.value

    @pytest.mark.parametrize("norm", list(NormTag))
    def test_non_monotone_linear_is_sampled_through_inverse_and_shift(
            self, norm):
        # B = 9.927e-11 on every entry and K = e1 e1^T round B B^T + K - K^T
        # to this M, whose M + M^T has an eigenvalue -2.5e-20
        S = Linear(pair=DualPair(2, norm),
                   M=np.array([[0.0, 2e-20], [2e-20, 2e-20]]))
        assert not S.monotone
        x, xs = np.array([0.3, -1.2]), np.array([0.7, 0.4])
        reports = [gap(S, PairedPoint(x, xs)),
                   gap(inverse(S), PairedPoint(xs, x)),
                   gap(Shift(pair=S.pair, inner=S, dx=xs, dxstar=x),
                       PairedPoint(x, xs))]
        assert [r.method for r in reports] == ["sampled"] * 3

    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.LINF])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)),
        arrays(np.float64, (2, n), elements=COORD))))
    def test_monotone_linear_on_l1_and_linf(self, norm, case):
        # r of S^-1 at (x*, x) is r of S at (x, x*), so one QP answers
        # both, singular M included
        B, K, probe = case
        n = B.shape[0]
        S = Linear(pair=DualPair(n, norm), M=B @ B.T + K - K.T)
        # rounding in B B^T + K - K^T can leave M just short of monotone
        assume(S.monotone)
        x, xs = probe
        a = gap(S, PairedPoint(x, xs))
        b = gap(inverse(S), PairedPoint(xs, x))
        assert a.method == b.method == "qp"
        assert a.value == b.value
        assert np.array_equal(a.witness.x, b.witness.xstar)
        assert np.array_equal(a.witness.xstar, b.witness.x)

    def test_inverse_tail_map_is_a_qp(self):
        T = tail_operator(4)
        rep = gap(inverse(T), PairedPoint(np.ones(4), np.zeros(4)))
        assert (rep.value, rep.method) == (0.0, "qp")


class TestIsQuasidense:
    def test_maximal_subdifferential_passes(self):
        rng = np.random.default_rng(5)
        probes = [pp(rng.normal() * 4, rng.normal() * 4) for _ in range(40)]
        rep = is_quasidense(ABS_OP, probes, eta=1e-6)
        assert rep.all_pass
        assert len(rep.gaps) == 40

    def test_truncated_graph_fails(self):
        rep = is_quasidense(ORIGIN, [pp(1.0, 1.0)], eta=1e-6)
        assert not rep.all_pass
        assert rep.gaps[0] == pytest.approx(2.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            is_quasidense(ABS_OP, [pp(0.0, 0.0)], eta=0.0)
