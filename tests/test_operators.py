"""Operator representations, resolvents, sampling, combinators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotone_lab import (
    Ball,
    DualPair,
    FiniteGraph,
    HalfSqNorm,
    IndicatorFn,
    InverseOp,
    Linear,
    NormFn,
    NormTag,
    NormalCone,
    PairedPoint,
    Polytope,
    ResolventError,
    Shift,
    Subdifferential,
    SumFn,
    SumOp,
    SupportFn,
    SupportSubdiff,
    add,
    box,
    gap,
    interval,
    inverse,
    monotone_check,
    normal_cone,
    parallel_sum,
    strong_max_dual,
    support_subdiff,
    tail_operator,
)

PAIR1 = DualPair(1, NormTag.L2)
ABS_OP = Subdifferential(pair=PAIR1, f=NormFn(1))
CONE_OP = NormalCone(pair=PAIR1, f=IndicatorFn(interval(-1.0, 1.0)))
IDENTITY = Linear(pair=PAIR1, M=np.array([[1.0]]))


class TestTailOperator:
    def test_row_sums(self):
        T = tail_operator(2)
        assert np.array_equal(T.M @ np.array([1.0, -1.0]),
                              np.array([0.0, -1.0]))

    def test_monotonicity_identity(self):
        # <x, Tx> = (sum x)^2/2 + (sum x^2)/2, brute-checked for n <= 6
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            T = tail_operator(n)
            for _ in range(25):
                x = rng.normal(size=n)
                lhs = float(x @ (T.M @ x))
                rhs = 0.5 * float(np.sum(x)) ** 2 + 0.5 * float(x @ x)
                assert lhs == pytest.approx(rhs, abs=1e-10)
                assert lhs >= 0.0

    def test_n1_is_identity(self):
        assert np.array_equal(tail_operator(1).M, np.array([[1.0]]))

    def test_pair_is_l1_linf(self):
        T = tail_operator(3)
        assert T.pair.primal_norm is NormTag.L1
        assert T.pair.dual_norm is NormTag.LINF

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tail_operator(0)


class TestResolvent:
    def test_identity_map(self):
        pt = IDENTITY.resolvent(np.array([2.0]))
        assert pt.x[0] == pytest.approx(1.0)
        assert pt.xstar[0] == pytest.approx(1.0)

    def test_abs_subdifferential(self):
        pt = ABS_OP.resolvent(np.array([2.0]))
        assert pt.x[0] == pytest.approx(1.0)
        assert pt.xstar[0] == pytest.approx(1.0)

    def test_normal_cone(self):
        pt = CONE_OP.resolvent(np.array([3.0]))
        assert pt.x[0] == pytest.approx(1.0)
        assert pt.xstar[0] == pytest.approx(2.0)

    def test_resolvent_point_is_on_graph(self):
        rng = np.random.default_rng(4)
        for S in (ABS_OP, CONE_OP, IDENTITY):
            for _ in range(20):
                z = rng.normal(size=1) * 3
                pt = S.resolvent(z)
                assert pt.x[0] + pt.xstar[0] == pytest.approx(float(z[0]),
                                                              abs=1e-9)
                assert S.contains(pt.x, pt.xstar, tol=1e-6) == "yes"

    def test_finite_graph_nearest(self):
        G = FiniteGraph(pair=PAIR1,
                        points=(PairedPoint([0.0], [0.0]),
                                PairedPoint([1.0], [1.0])))
        pt = G.resolvent(np.array([1.9]))
        assert pt.x[0] == 1.0


class TestGraphSample:
    def test_finite_graph_returns_all(self):
        pts = (PairedPoint([0.0], [0.0]), PairedPoint([1.0], [1.0]),
               PairedPoint([2.0], [3.0]))
        G = FiniteGraph(pair=PAIR1, points=pts)
        X, Xs = G.graph_rows(10, 0)
        assert X.tolist() == [[0.0], [1.0], [2.0]]
        assert Xs.tolist() == [[0.0], [1.0], [3.0]]

    def test_abs_soft_threshold_pattern(self):
        # z = -2, 0.5, 2 map to (-1,-1), (0, 0.5), (1, 1)
        for z, expect in ((-2.0, (-1.0, -1.0)), (0.5, (0.0, 0.5)),
                          (2.0, (1.0, 1.0))):
            pt = ABS_OP.resolvent(np.array([z]))
            assert pt.x[0] == pytest.approx(expect[0])
            assert pt.xstar[0] == pytest.approx(expect[1])

    def test_normal_cone_includes_scaled_normals(self):
        X, Xs = CONE_OP.graph_rows(40, 1)
        hits = [x for x, xs in zip(X, Xs)
                if abs(x[0] - 1.0) < 1e-9 and xs[0] > 1e-9]
        assert hits  # (1, lambda) with lambda > 0 appears

    def test_normal_cone_domain_stays_inside(self):
        K = interval(-1.0, 1.0)
        S = NormalCone(pair=PAIR1, f=IndicatorFn(K))
        for x in S.graph_rows(60, 2)[0]:
            assert K.contains(x, tol=1e-7)

    def test_support_subdiff_range_stays_inside(self):
        Kt = interval(-1.0, 1.0)
        S = SupportSubdiff(pair=PAIR1, f=SupportFn(Kt))
        for xs in S.graph_rows(60, 3)[1]:
            assert Kt.contains(xs, tol=1e-7)

    def test_deterministic_under_seed(self):
        a = ABS_OP.graph_rows(20, 5)
        b = ABS_OP.graph_rows(20, 5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestMonotoneCheck:
    def test_tail_ok(self):
        assert monotone_check(tail_operator(4), budget=50, seed=0).ok

    def test_violating_graph(self):
        G = FiniteGraph(pair=PAIR1,
                        points=(PairedPoint([0.0], [0.0]),
                                PairedPoint([1.0], [-1.0])))
        v = monotone_check(G, budget=10, seed=0)
        assert not v.ok
        assert v.worst_value == pytest.approx(-1.0)
        assert v.witness is not None

    def test_subdifferentials_ok(self):
        pair2 = DualPair(2)
        square = Polytope(vertices=np.array([[1.0, 1.0], [1.0, -1.0],
                                             [-1.0, 1.0], [-1.0, -1.0]]))
        ops = [
            ABS_OP,
            CONE_OP,
            Subdifferential(pair=pair2, f=HalfSqNorm(2)),
            NormalCone(pair=pair2, f=IndicatorFn(square)),
            SupportSubdiff(pair=pair2, f=SupportFn(
                Polytope(vertices=square.vertices))),
        ]
        for S in ops:
            assert monotone_check(S, budget=100, seed=1).ok


class TestCombinators:
    def test_shift_translates_samples_exactly(self):
        dx, dxstar = np.array([0.5]), np.array([-1.5])
        S = Shift(pair=PAIR1, inner=ABS_OP, dx=dx, dxstar=dxstar)
        X, Xs = ABS_OP.graph_rows(15, 7)
        SX, SXs = S.graph_rows(15, 7)
        assert np.array_equal(SX, X - dx)
        assert np.array_equal(SXs, Xs - dxstar)

    def test_inverse_swaps_samples(self):
        S = InverseOp(pair=PAIR1, inner=ABS_OP)
        X, Xs = ABS_OP.graph_rows(15, 8)
        SX, SXs = S.graph_rows(15, 8)
        assert np.array_equal(SX, Xs) and np.array_equal(SXs, X)

    def test_inverse_resolvent_is_graph_point(self):
        S = InverseOp(pair=PAIR1, inner=CONE_OP)
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = rng.normal(size=1) * 3
            pt = S.resolvent(z)
            assert pt.x[0] + pt.xstar[0] == pytest.approx(float(z[0]),
                                                          abs=1e-8)
            assert CONE_OP.contains(pt.xstar, pt.x, tol=1e-6) == "yes"

    def test_inverse_of_finite_graph_is_exact(self):
        # G^-1 = {(1, 0), (3, 1)}; at the probe (0.4, 0) the gap is
        # r((1, 0)) = 0.6^2/2 = 0.18, at a point of G^-1
        G = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [1.0]),
                                            PairedPoint([1.0], [3.0])))
        probe = PairedPoint([0.4], [0.0])
        inv = inverse(G)
        assert isinstance(inv, FiniteGraph)
        rep = gap(inv, probe)
        assert (rep.status, rep.method) == ("exact", "enumeration")
        assert rep.value == pytest.approx(0.18, abs=1e-15)
        assert inv.contains(rep.witness.x, rep.witness.xstar) == "yes"
        # the same graph wrapped by hand takes the resolvent oracle, which
        # now returns a point of G^-1 as well
        rep = gap(InverseOp(pair=PAIR1, inner=G), probe)
        assert (rep.status, rep.method) == ("exact", "resolvent")
        assert rep.value == pytest.approx(0.18, abs=1e-15)
        assert G.contains(rep.witness.xstar, rep.witness.x) == "yes"

    def test_inverse_lives_on_the_swapped_pair(self):
        S = Subdifferential(pair=DualPair(2, NormTag.L1), f=NormFn(2))
        inv = inverse(S)
        assert isinstance(inv, InverseOp)
        assert inv.pair == DualPair(2, NormTag.LINF)
        # built by hand, an inverse on any other pair is rejected
        for pair in (S.pair, DualPair(3, NormTag.LINF)):
            with pytest.raises(ValueError, match="swapped pair"):
                InverseOp(pair=pair, inner=S)

    def test_parallel_sum_keeps_the_pair(self):
        T = Linear(pair=DualPair(1, NormTag.L1), M=np.array([[1.0]]))
        P = parallel_sum(T, T)
        assert P.pair == T.pair
        assert P.inner.pair == DualPair(1, NormTag.LINF)

    def test_sum_resolvent_succeeds_with_interior_overlap(self):
        S = SumOp(pair=PAIR1, S=ABS_OP, T=CONE_OP)
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = rng.normal(size=1) * 4
            pt = S.resolvent(z)
            assert pt.x[0] + pt.xstar[0] == pytest.approx(float(z[0]),
                                                          abs=1e-7)
            # the sum value splits across both operands at s
            assert abs(pt.x[0]) <= 1.0 + 1e-7

    def test_sum_resolvent_1d_oracle(self):
        # S + T with S = d|.|, T = identity: resolvent solves
        # s + sign-ish + s = z, so z = 3 gives s = 1, s* = 2
        S = SumOp(pair=PAIR1, S=ABS_OP, T=IDENTITY)
        pt = S.resolvent(np.array([3.0]))
        assert pt.x[0] == pytest.approx(1.0, abs=1e-7)
        assert pt.xstar[0] == pytest.approx(2.0, abs=1e-7)

    def test_add_of_two_linear_maps_is_one_linear_map(self):
        rng = np.random.default_rng(11)
        pair = DualPair(2, NormTag.L1)
        B1, B2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        M1, M2 = B1 @ B1.T, B2 - B2.T
        S = add(Linear(pair=pair, M=M1), Linear(pair=pair, M=M2))
        assert isinstance(S, Linear) and S.pair == pair
        for _ in range(20):
            z = rng.normal(size=2) * 5
            assert np.array_equal(S.resolvent(z).x, np.linalg.solve(
                np.eye(2) + M1 + M2, z))

    def test_add_keeps_a_sum_op_otherwise(self):
        assert isinstance(add(ABS_OP, IDENTITY), SumOp)
        other = Linear(pair=DualPair(1, NormTag.L1), M=np.array([[1.0]]))
        S = add(IDENTITY, other)
        assert isinstance(S, SumOp) and S.pair == PAIR1

    def test_parallel_sum_resolvent(self):
        # identity || identity = (1/2) identity:
        # s + s/2 = z gives s = 2z/3
        P = parallel_sum(IDENTITY, IDENTITY)
        pt = P.resolvent(np.array([3.0]))
        assert pt.x[0] == pytest.approx(2.0, abs=1e-6)
        assert pt.xstar[0] == pytest.approx(1.0, abs=1e-6)


NORM_TAGS = (NormTag.L1, NormTag.L2, NormTag.LINF)


def _separable_subdiff(rng, pair):
    """The subdifferential of an l1 norm, or of any norm in 1-D."""
    kind = NORM_TAGS[rng.integers(3)] if pair.dim == 1 else NormTag.L1
    return Subdifferential(pair=pair,
                           f=NormFn(pair.dim, float(rng.uniform(0.1, 2.0)),
                                    kind))


def _box_cone(rng, pair):
    lo = rng.uniform(-2.0, 0.0, pair.dim)
    return normal_cone(pair, box(lo, lo + rng.uniform(0.0, 2.0, pair.dim)))


def _assert_rows_match(P, ref, Z, lam):
    X, Xs, ok = P.resolvent(Z, lam)
    assert ok.all()
    # compared where Douglas-Rachford converged: a row of the reference
    # can stall (the box [-0.126, -0.0009] beside 1.73|x| at z = 3.05,
    # lam = 2 stops at residual 9e-4), which the closed form does not
    Xr, Xsr, ok_r = ref.resolvent(Z, lam)
    scale = max(1.0, float(np.abs(Z).max()))
    # x + lam x* = z in both, so x* differs by the x gap over lam
    assert np.abs(X - Xr)[ok_r].max(initial=0.0) <= 1e-10 * scale
    assert np.abs(lam * (Xs - Xsr))[ok_r].max(initial=0.0) <= 1e-10 * scale


class TestFoldedSums:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           k=st.integers(0, 2), lam=st.floats(0.05, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_folded_add_is_the_douglas_rachford_sum(self, seed, n, k, lam):
        rng = np.random.default_rng(seed)
        pair = DualPair(n, NORM_TAGS[k])
        S, T = _separable_subdiff(rng, pair), _box_cone(rng, pair)
        A = add(S, T) if rng.integers(2) else add(T, S)
        assert type(A) is Subdifferential and A.f.folds
        assert A.pair == pair
        _assert_rows_match(A, SumOp(pair=pair, S=S, T=T),
                           rng.uniform(-4.0, 4.0, (6, n)), lam)
        assert all(A.contains(x, xs) == "yes"
                   for x, xs in zip(*A.graph_rows(12, seed % 1000)))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           k=st.integers(0, 2), lam=st.floats(0.05, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_folded_parallel_sum_is_the_douglas_rachford_one(self, seed, n,
                                                             k, lam):
        # (d||.||_1)^-1 is the normal cone of an linf ball and (N_B)^-1
        # the subdifferential of B's support function; d(|.|^2/2) is its
        # own inverse
        rng = np.random.default_rng(seed)
        pair = DualPair(n, NORM_TAGS[k])
        S = _separable_subdiff(rng, pair)
        T = (_box_cone(rng, pair) if rng.integers(2)
             else Subdifferential(pair=pair, f=HalfSqNorm(n)))
        P = parallel_sum(S, T)
        assert isinstance(P, InverseOp) and P.pair == pair
        assert type(P.inner) is Subdifferential and P.inner.f.folds
        dual = DualPair(n, pair.dual_norm)
        ref = InverseOp(pair=pair, inner=SumOp(
            pair=dual, S=InverseOp(pair=dual, inner=S),
            T=InverseOp(pair=dual, inner=T)))
        _assert_rows_match(P, ref, rng.uniform(-4.0, 4.0, (6, n)), lam)
        assert all(P.contains(x, xs) == "yes"
                   for x, xs in zip(*P.graph_rows(12, seed % 1000)))

    def test_sums_that_need_douglas_rachford_stay_sum_ops(self):
        pair = DualPair(2)
        l2 = Subdifferential(pair=pair, f=NormFn(2))
        cone = normal_cone(pair, box(-np.ones(2), np.ones(2)))
        small = normal_cone(pair, box(np.zeros(2), np.ones(2)))
        # not separable; no summand of full domain; on two pairs
        assert isinstance(add(l2, cone), SumOp)
        assert isinstance(add(cone, small), SumOp)
        assert isinstance(add(ABS_OP, Subdifferential(
            pair=DualPair(1, NormTag.L1), f=NormFn(1))), SumOp)
        # a summand that is itself a Douglas-Rachford sum
        dr = Subdifferential(pair=pair, f=SumFn(NormFn(2), NormFn(2)))
        assert isinstance(add(dr, l2), SumOp)
        # the conjugates are the indicators of two boxes
        P = parallel_sum(support_subdiff(pair, box(-np.ones(2), np.ones(2))),
                         Subdifferential(pair=pair,
                                         f=NormFn(2, 1.0, NormTag.L1)))
        assert isinstance(P.inner, SumOp)
        # no closed-form conjugate
        assert isinstance(parallel_sum(dr, l2).inner, SumOp)

    def test_a_separable_sum_no_rule_folds_takes_its_pieces(self):
        # d(|x| + |x|) folds to the prox of 2|x|, and so does its sum with
        # the normal cone of [-1, 1]; both equal the converged
        # Douglas-Rachford resolvents
        inner = add(ABS_OP, ABS_OP)
        A = add(inner, CONE_OP)
        assert type(A) is Subdifferential and A.f.folds
        ref = SumOp(pair=PAIR1, S=SumOp(pair=PAIR1, S=ABS_OP, T=ABS_OP),
                    T=CONE_OP)
        for lam in (0.3, 1.0, 2.5):
            _assert_rows_match(A, ref, np.linspace(-4.0, 4.0, 17)[:, None],
                               lam)

    def test_contains_of_a_separable_fold_is_fenchel_young(self):
        # |x| + i_[-1, 1] folds to a separable sum, whose conjugate is a
        # closed form: Fenchel-Young decides
        A = add(ABS_OP, CONE_OP)
        assert A.f.conjugate_fn() is not None
        assert A.contains(np.array([1.0]), np.array([3.0])) == "yes"
        assert A.contains(np.array([0.5]), np.array([3.0])) == "no"
        assert A.contains(np.array([1.5]), np.array([1.0])) == "no"

    def test_contains_of_a_sum_that_does_not_fold_reads_the_residual(self):
        # d(||.||_2 + i_box) in 2-D is not separable: it stays a SumOp,
        # and the Douglas-Rachford resolvent residual decides
        pair = DualPair(2)
        A = add(Subdifferential(pair=pair, f=NormFn(2)),
                normal_cone(pair, box(-np.ones(2), np.ones(2))))
        assert isinstance(A, SumOp)
        for x, xs, verdict in (([1.0, 0.0], [3.0, 0.0], "yes"),
                               ([1.0, 1.0], [2.0, 3.0], "yes"),
                               ([0.3, 0.4], [0.6, 0.8], "yes"),
                               ([1.0, 0.0], [3.0, 1.0], "no"),
                               ([0.5, 0.0], [3.0, 0.0], "no")):
            x, xs = np.array(x), np.array(xs)
            assert A.contains(x, xs) == verdict
            assert (A.residual(x, xs) <= 1e-7) == (verdict == "yes")


class TestContains:
    def test_linear(self):
        assert IDENTITY.contains(np.array([2.0]), np.array([2.0])) == "yes"
        assert IDENTITY.contains(np.array([2.0]), np.array([1.0])) == "no"

    def test_subdifferential_three_valued(self):
        assert ABS_OP.contains(np.array([0.0]), np.array([0.5])) == "yes"
        assert ABS_OP.contains(np.array([1.0]), np.array([0.5])) == "no"

    def test_finite_graph_lookup(self):
        G = FiniteGraph(pair=PAIR1, points=(PairedPoint([1.0], [2.0]),))
        assert G.contains(np.array([1.0]), np.array([2.0])) == "yes"
        assert G.contains(np.array([1.0]), np.array([2.1])) == "no"


class TestResidual:
    NAN_GRAPH = FiniteGraph(pair=PAIR1,
                            points=(PairedPoint([0.0], [np.nan]),
                                    PairedPoint([1.0], [1.0])))

    def test_finite_graph_skips_a_nan_row(self):
        G = self.NAN_GRAPH
        assert G.residual(np.array([1.0]), np.array([1.0])) == 0.0
        assert G.residual(np.array([0.0]), np.array([0.0])) == 2.0
        assert G.contains(np.array([0.0]), np.array([0.0])) == "no"

    def test_linear(self):
        S = Linear(pair=PAIR1, M=np.array([[2.0]]))
        assert S.residual(np.array([2.0]), np.array([1.5])) == 2.5
        assert S.residual(np.array([2.0]), np.array([4.0])) == 0.0

    def test_inverse_swaps_the_components(self):
        S = Linear(pair=PAIR1, M=np.array([[2.0]]))
        T = inverse(S)
        assert isinstance(T, InverseOp)
        for x, xs in (([4.0], [2.0]), ([1.0], [1.0]), ([-3.0], [0.5])):
            assert T.residual(np.array(x), np.array(xs)) == S.residual(
                np.array(xs), np.array(x))

    def test_base_residual_is_zero_at_a_resolvent_point(self):
        pt = ABS_OP.resolvent(np.array([2.5]))
        assert ABS_OP.residual(pt.x, pt.xstar) == 0.0
        assert ABS_OP.residual(np.array([1.0]), np.array([0.0])) == 2.0

    def test_base_residual_raises_when_the_resolvent_fails(self):
        # I + lam*(-1) is singular at lam = 1, so the summand's resolvent
        # fails inside the sum's
        S = SumOp(pair=PAIR1, S=Linear(pair=PAIR1, M=np.array([[-1.0]])),
                  T=IDENTITY)
        with pytest.raises(ResolventError):
            S.residual(np.array([1.0]), np.array([0.0]))
        assert S.contains(np.array([1.0]), np.array([0.0])) == "unknown"

    def test_nan_graph_point_is_never_the_lookup(self):
        pt = self.NAN_GRAPH.resolvent(np.array([2.0]))
        assert pt.x[0] == 1.0 and pt.xstar[0] == 1.0

    def test_strong_max_finds_the_finite_point_past_a_nan_row(self):
        res = strong_max_dual(self.NAN_GRAPH, np.array([1.0]),
                              interval(0.5, 1.5))
        assert res.found and res.residual == 0.0
        assert res.point.xstar[0] == 1.0


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            FiniteGraph(pair=PAIR1, points=())

    def test_linear_shape_mismatch(self):
        with pytest.raises(ValueError):
            Linear(pair=DualPair(2), M=np.eye(3))

    @pytest.mark.parametrize("points", [[([1.0], [2.0])],
                                        [([1.0, 0.0], [2.0, 0.0]),
                                         ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])]])
    def test_graph_point_of_another_size_rejected(self, points):
        with pytest.raises(ValueError, match="graph point has shape"):
            FiniteGraph(pair=DualPair(2), points=tuple(
                PairedPoint(x, xs) for x, xs in points))

    @pytest.mark.parametrize("dx, dxstar", [([1.0], [0.0, 0.0]),
                                            ([0.0, 0.0], [1.0, 2.0, 3.0])])
    def test_shift_of_another_size_rejected(self, dx, dxstar):
        with pytest.raises(ValueError, match="has shape"):
            Shift(pair=DualPair(2), inner=Linear(pair=DualPair(2),
                                                 M=np.eye(2)),
                  dx=np.array(dx), dxstar=np.array(dxstar))

    def test_singular_resolvent_raises(self):
        from monotone_lab import ResolventError
        S = Linear(pair=PAIR1, M=np.array([[-1.0]]))
        with pytest.raises(ResolventError):
            S.resolvent(np.array([1.0]))
