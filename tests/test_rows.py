"""The row form of the oracle stack: ``project``, ``prox_lam`` and
``resolvent`` of a stack against their single-point paths, bit for bit,
the rows of ``graph_rows`` against the graph, and the stacked window
probes and candidate scans built on them."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotone_lab import (
    Affine,
    Ball,
    Capsule,
    DualPair,
    FiniteGraph,
    HalfSqNorm,
    IndicatorFn,
    Linear,
    MonotoneOperator,
    NormFn,
    NormTag,
    NormalCone,
    PairedPoint,
    Polytope,
    Quadratic,
    ResolventError,
    Shift,
    Subdifferential,
    SumFn,
    SumOp,
    SupportFn,
    SupportSubdiff,
    Translate,
    box,
    interval,
    inverse,
    monotone_check,
    singleton,
)
from monotone_lab.classifiers import _window_probes, check_fpv
from monotone_lab.fitzpatrick import phi
from monotone_lab.quasidensity import fuzzy_gap_dual, gap, gaps
from monotone_lab.solvers import project_ball
from monotone_lab.spaces import first_min, row_dots, row_norms, vector_norm

NORMS = (NormTag.L1, NormTag.L2, NormTag.LINF)


def _set(rng, n, kind):
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, n)
        return box(lo, lo + rng.uniform(0.0, 2.0, n))
    if kind == "hull":
        return Polytope(vertices=rng.uniform(-2.0, 2.0, (n + 2, n)))
    if kind == "capsule":
        return Capsule(a=rng.uniform(-1.0, 1.0, n),
                       b=rng.uniform(-1.0, 1.0, n),
                       radius=float(rng.uniform(0.0, 1.0)),
                       norm=NORMS[int(rng.integers(3))])
    return Ball(center=rng.uniform(-1.0, 1.0, n),
                radius=float(rng.uniform(0.0, 2.0)),
                norm=NormTag(kind.split("_")[1]))


SET_KINDS = ("box", "hull", "capsule", "ball_l1", "ball_l2", "ball_linf")


def _fn(rng, n, kind):
    if kind == "norm":
        return NormFn(n, float(rng.uniform(0.0, 2.0)),
                      NORMS[int(rng.integers(3))])
    if kind == "half_sq":
        return HalfSqNorm(n)
    if kind == "quadratic":
        B = rng.normal(size=(n, n))
        return Quadratic(B @ B.T, rng.normal(size=n), 0.5)
    if kind == "affine":
        return Affine(rng.normal(size=n), 1.0)
    if kind == "translate":
        return Translate(_fn(rng, n, "norm"), rng.normal(size=n),
                         rng.normal(size=n), 0.25)
    if kind == "indicator":
        return IndicatorFn(_set(rng, n, SET_KINDS[int(rng.integers(6))]))
    if kind == "support":
        return SupportFn(_set(rng, n, SET_KINDS[int(rng.integers(6))]))
    if kind == "sum_folded":
        smooth = [Affine(rng.normal(size=n)), HalfSqNorm(n),
                  Quadratic(2.0 * np.eye(n), rng.normal(size=n))]
        other = _fn(rng, n, ("norm", "indicator", "support")[
            int(rng.integers(3))])
        s = smooth[int(rng.integers(3))]
        return SumFn(s, other) if rng.integers(2) else SumFn(other, s)
    # two summands with no fold: Douglas-Rachford, one point at a time
    return SumFn(NormFn(n, 0.5, NormTag.L2), IndicatorFn(_set(rng, n, "box")))


FN_KINDS = ("norm", "half_sq", "quadratic", "affine", "translate",
            "indicator", "support", "sum_folded", "sum_dr")


def _op(rng, pair, kind):
    n = pair.dim
    if kind == "graph":
        return FiniteGraph(pair=pair, points=tuple(
            PairedPoint(rng.normal(size=n), rng.normal(size=n))
            for _ in range(int(rng.integers(1, 5)))))
    if kind == "linear":
        B, K = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        return Linear(pair=pair, M=B @ B.T + K - K.T)
    if kind == "subdiff":
        return Subdifferential(pair=pair, f=_fn(
            rng, n, FN_KINDS[int(rng.integers(len(FN_KINDS)))]))
    if kind == "normal_cone":
        return NormalCone(pair=pair, f=IndicatorFn(
            _set(rng, n, SET_KINDS[int(rng.integers(6))])))
    if kind == "support_subdiff":
        return SupportSubdiff(pair=pair, f=SupportFn(
            _set(rng, n, SET_KINDS[int(rng.integers(6))])))
    if kind == "shift":
        return Shift(pair=pair, inner=_op(rng, pair, "subdiff"),
                     dx=rng.normal(size=n), dxstar=rng.normal(size=n))
    if kind == "sum":
        return SumOp(pair=pair, S=_op(rng, pair, "linear"),
                     T=Subdifferential(pair=pair, f=HalfSqNorm(n)))
    inner_pair = DualPair(n, pair.dual_norm)
    return inverse(_op(rng, inner_pair, kind.split("_", 1)[1]))


OP_KINDS = ("graph", "linear", "subdiff", "normal_cone", "support_subdiff",
            "shift", "sum", "inverse_linear", "inverse_subdiff",
            "inverse_normal_cone", "inverse_shift")

# a sum whose summand -0.6 I is not monotone: Douglas-Rachford converges
# at z = 0 and stalls or overflows further out; a shift and the inverse
PAIR1 = DualPair(1)
STALLING = SumOp(pair=PAIR1, S=Linear(pair=PAIR1, M=np.array([[-0.6]])),
                 T=NormalCone(pair=PAIR1, f=IndicatorFn(interval(-1.0, 1.0))))
STALLING_OPS = (STALLING,
                Shift(pair=PAIR1, inner=STALLING, dx=[0.25], dxstar=[-0.5]),
                inverse(STALLING))


def _assert_rows_are_points(S, Z, lam):
    """Each ok row of S's resolvent of the stack Z is the point call bit
    for bit; each other row is NaN, and its point call raises."""
    X, Xs, ok = S.resolvent(Z, lam)
    assert X.shape == Xs.shape == Z.shape and ok.shape == (len(Z),)
    for i, z in enumerate(Z):
        if ok[i]:
            p = S.resolvent(z, lam)
            assert np.array_equal(X[i], p.x, equal_nan=True)
            assert np.array_equal(Xs[i], p.xstar, equal_nan=True)
        else:
            assert np.isnan(X[i]).all() and np.isnan(Xs[i]).all()
            with pytest.raises(ResolventError):
                S.resolvent(z, lam)


CASE = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3),
                 st.integers(1, 4), st.floats(0.05, 4.0))


def _stack(seed, n, m):
    return np.random.default_rng([seed, 1]).uniform(-4.0, 4.0, (m, n))


class TestRowsEqualPoints:
    @pytest.mark.parametrize("kind", SET_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(case=CASE)
    def test_project_rows(self, kind, case):
        seed, n, m, _ = case
        K = _set(np.random.default_rng(seed), n, kind)
        Y = _stack(seed, n, m)
        P = K.project(Y)
        assert P.shape == Y.shape
        for y, p in zip(Y, P):
            assert np.array_equal(p, K.project(y))

    @pytest.mark.parametrize("kind", SET_KINDS + ("capsule_l1",
                                                  "capsule_l2"))
    @settings(max_examples=25, deadline=None)
    @given(case=CASE, size=st.floats(-6.0, 6.0))
    def test_support_rows(self, kind, case, size):
        seed, n, m, _ = case
        rng = np.random.default_rng(seed)
        K = (Capsule(a=rng.uniform(-1.0, 1.0, n), b=rng.uniform(-1.0, 1.0, n),
                     radius=float(rng.uniform(0.0, 1.0)),
                     norm=NormTag(kind.split("_")[1]))
             if kind.startswith("capsule_") else _set(rng, n, kind))
        Y = _stack(seed, n, m) * 10.0 ** size
        vals = K.support(Y)
        assert vals.shape == (m,)
        for y, v in zip(Y, vals):
            s = K.support(y)
            assert type(s) is float and np.array_equal(v, s)

    @pytest.mark.parametrize("kind", FN_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(case=CASE)
    def test_prox_rows(self, kind, case):
        seed, n, m, lam = case
        f = _fn(np.random.default_rng(seed), n, kind)
        Z = _stack(seed, n, m)
        P = f.prox_lam(Z, lam)
        assert P.shape == Z.shape
        for z, p in zip(Z, P):
            assert np.array_equal(p, f.prox_lam(z, lam))

    @pytest.mark.parametrize("kind", OP_KINDS)
    @pytest.mark.parametrize("norm", NORMS)
    @settings(max_examples=20, deadline=None)
    @given(case=CASE)
    def test_resolvent_rows(self, kind, norm, case):
        seed, n, m, lam = case
        S = _op(np.random.default_rng(seed), DualPair(n, norm), kind)
        _assert_rows_are_points(S, _stack(seed, n, m), lam)

    @pytest.mark.parametrize("which", range(len(STALLING_OPS)))
    @settings(max_examples=8, deadline=None)
    @given(case=CASE)
    def test_stalled_rows_fail_alone(self, which, case):
        # the unconverged rows of the stacked run are the points that
        # raise; every other row is its point run (a stalled row runs to
        # the 6000-step cap, hence the few examples)
        seed, _, m, lam = case
        with np.errstate(all="ignore"):
            _assert_rows_are_points(STALLING_OPS[which],
                                    _stack(seed, 1, m) / 4.0, lam)

    @pytest.mark.parametrize("kind", OP_KINDS)
    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf, 1e-310])
    def test_a_bad_step_is_rejected(self, kind, lam):
        # no step but a finite positive one with a finite reciprocal
        # gives graph points: at 1e-310, 1/lam overflows
        for norm in NORMS:
            S = _op(np.random.default_rng(7), DualPair(2, norm), kind)
            for z in (np.full(2, 2.0), np.full((3, 2), 2.0)):
                with pytest.raises(ValueError, match="lam"):
                    S.resolvent(z, lam)

    @pytest.mark.parametrize("kind", OP_KINDS)
    def test_graph_rows(self, kind):
        # every sampled row is a graph point: the operator's own
        # membership test never rejects it, on each of the three pairs
        for norm in NORMS:
            for seed in range(24):
                n, m = 1 + seed % 3, 1 + seed % 4
                S = _op(np.random.default_rng(seed), DualPair(n, norm), kind)
                X, Xs = S.graph_rows(3 * m, seed)
                assert X.shape == Xs.shape and X.shape[1] == n
                for x, xs in zip(X, Xs):
                    assert S.contains(x, xs) != "no", (norm, seed, x, xs)

    def test_singular_linear_fails_every_row(self):
        S = Linear(pair=DualPair(2), M=-np.eye(2))
        X, Xs, ok = S.resolvent(np.ones((3, 2)))
        assert not ok.any() and np.isnan(X).all() and np.isnan(Xs).all()

    def test_rows_must_match_the_dimension(self):
        S = Linear(pair=DualPair(2), M=np.eye(2))
        with pytest.raises(ValueError, match="z"):
            S.resolvent(np.ones((3, 3)))

    def test_row_dots_are_the_vector_dots(self):
        rng = np.random.default_rng(4)
        for n in range(1, 9):
            A, B = rng.normal(size=(50, n)), rng.normal(size=(50, n)) * 1e3
            assert np.array_equal(row_dots(A, B),
                                  [a @ b for a, b in zip(A, B)])
            assert row_dots(A[0], B[0]) == A[0] @ B[0]
            for tag in NORMS:
                assert np.array_equal(row_norms(A, tag),
                                      [vector_norm(a, tag) for a in A])

    @pytest.mark.parametrize("radius", [0.0, 0.5, 2.0])
    def test_l2_ball_projection_is_the_scalar_formula(self, radius):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(400, 6)) * rng.uniform(0.0, 2.0, (400, 1))
        V[::7] = 0.0
        V[3, 2] = np.nan
        for v, p in zip(V, project_ball(V, radius, "l2")):
            n = np.linalg.norm(v)
            ref = v if n <= radius else v * (radius / n)
            assert np.array_equal(p, ref, equal_nan=True)
            assert np.array_equal(project_ball(v, radius, "l2"), ref,
                                  equal_nan=True)


def _same_report(a, b) -> bool:
    """Two gap outcomes equal field for field: value (NaN equal to NaN),
    status, method and witness bits, or the same error text."""
    if isinstance(a, ResolventError) or isinstance(b, ResolventError):
        return type(a) is type(b) and str(a) == str(b)
    if a.witness is None or b.witness is None:
        same_witness = a.witness is b.witness
    else:
        same_witness = (np.array_equal(a.witness.x, b.witness.x, True)
                        and np.array_equal(a.witness.xstar, b.witness.xstar,
                                           True))
    return (np.array_equal(a.value, b.value, True) and same_witness
            and (a.status, a.method) == (b.status, b.method))


def _gap_or_error(S, p, budget, seed):
    try:
        return gap(S, p, budget, seed)
    except ResolventError as exc:
        return exc


class TestGaps:
    @pytest.mark.parametrize("kind", OP_KINDS)
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), norm=st.sampled_from(NORMS),
           n=st.integers(1, 2))
    def test_gaps_are_gap(self, kind, seed, norm, n):
        # each probe's outcome is its own gap call's, on every path
        rng = np.random.default_rng(seed)
        S = _op(rng, DualPair(n, norm), kind)
        probes = [PairedPoint(*rng.uniform(-3.0, 3.0, (2, n)))
                  for _ in range(3)]
        reports = gaps(S, probes, 12, seed % 4)
        assert len(reports) == len(probes)
        for p, rep in zip(probes, reports):
            assert _same_report(rep, _gap_or_error(S, p, 12, seed % 4))


@dataclass(frozen=True)
class _Scripted(MonotoneOperator):
    """The identity map, whose resolvent fails at the aims z in ``fail``
    (as tuples), whichever call or row brings them; ``calls`` records
    each call's aims."""

    fail: frozenset = frozenset()
    calls: list = field(default_factory=list, compare=False)

    def _resolve(self, z, lam):
        self.calls.append(z.copy())
        ok = np.array([tuple(r) not in self.fail
                       for r in np.atleast_2d(z)]).reshape(z.shape[:-1])
        if not ok.any():
            raise ResolventError("scripted failure")
        x = np.where(ok[..., None], z / (1.0 + lam), np.nan)
        return x, x, ok

    def graph_rows(self, budget, seed):
        X = np.random.default_rng(seed).uniform(-1.0, 1.0, (budget, 1))
        return X, X


def _reference_probes(S, region, wstar, base_xstar, seed):
    """The one-point-at-a-time loop the stacked probes replace."""
    rng = np.random.default_rng(seed + 17)
    targets = [region.project(rng.normal(size=region.dim) * 3.0)
               for _ in range(8)]
    targets.append(region.project(np.zeros(region.dim)))
    out = []
    for u in targets:
        for v in [wstar] + list(base_xstar[:6]):
            try:
                p = S.resolvent(u + v)
                out.append(p)
                out.append(S.resolvent(u + p.xstar))
            except ResolventError:
                return out
    return out


FAILS = [(), (0,), (1,), (2,), (7,), (8,), (57,), (125,), (3, 4)]


class TestWindowProbes:
    WINDOW = interval(-0.5, 1.5)
    WS = np.array([0.5])

    def _probes(self, S):
        _, Xs = S.graph_rows(10, 3)
        return _window_probes(S, self.WINDOW, self.WS, Xs, 3)

    def _reference(self, fail):
        """The aims of the reference loop with no failure, in the order
        p_0, q_0, p_1, ...; the loop's points on the operator that fails
        at the aims listed in ``fail``; and that operator, fresh."""
        S = _Scripted(pair=DualPair(1))
        base_xstar = S.graph_rows(10, 3)[1]
        _reference_probes(S, self.WINDOW, self.WS, base_xstar, 3)
        aims = np.array(S.calls)
        fail = frozenset(tuple(aims[k]) for k in fail)
        ref = _reference_probes(_Scripted(pair=DualPair(1), fail=fail),
                                self.WINDOW, self.WS, base_xstar, 3)
        return aims, ref, _Scripted(pair=DualPair(1), fail=fail)

    @pytest.mark.parametrize("fail", FAILS)
    def test_looping_operator_stops_at_the_first_failure(self, fail):
        _, ref, S = self._reference(fail)
        X, Xs = self._probes(S)
        assert np.array_equal(X, np.array([p.x for p in ref]).reshape(-1, 1))
        assert np.array_equal(Xs, np.array([p.xstar for p in ref])
                              .reshape(-1, 1))
        assert len(X) == (min(fail) if fail else 126)

    @pytest.mark.parametrize("fail", FAILS)
    def test_stage_two_gets_only_the_leading_ok_rows(self, fail):
        # stage 1 is one call over all 63 aims p_k; stage 2 re-aims the
        # rows before the first failed one, as the loop does, and runs
        # only if there is one
        aims, _, S = self._reference(fail)
        self._probes(S)
        k = min([i // 2 for i in fail if i % 2 == 0], default=63)
        assert len(S.calls) == (2 if k else 1)
        assert np.array_equal(S.calls[0], aims[0::2])
        if k:
            assert np.array_equal(S.calls[1], aims[1:2 * k:2])


class TestNonFiniteCandidates:
    def test_premise_witness_skips_nan_and_plus_inf(self):
        # (x - w)(x* - w*) is NaN, +inf, -0.5, -0.25 in this order
        G = FiniteGraph(pair=DualPair(1), points=tuple(
            PairedPoint([0.5], [s]) for s in (np.nan, np.inf, -1.0, -0.5)))
        v = check_fpv(G, interval(-1.0, 1.0), [0.0], [0.0],
                      budget=4)
        assert not v.premise_holds
        assert v.premise_witness.xstar[0] == -1.0

    def test_premise_holds_when_only_nan_and_plus_inf(self):
        G = FiniteGraph(pair=DualPair(1), points=(
            PairedPoint([0.5], [np.nan]), PairedPoint([0.5], [np.inf])))
        v = check_fpv(G, interval(-1.0, 1.0), [0.0], [0.0],
                      budget=4)
        assert v.premise_holds and v.premise_witness is None

    def test_phi_witness_skips_nan_and_minus_inf(self):
        @dataclass(frozen=True)
        class Rows(MonotoneOperator):
            def _resolve(self, z, lam):
                raise ResolventError("no resolvent")

            def graph_rows(self, budget, seed):
                # the piece value at (x, x*) = (1, 0) of (-1, s*) is 2 s*
                return (-np.ones((4, 1)),
                        np.array([[np.nan], [-np.inf], [0.1], [0.5]]))

        ev = phi(Rows(pair=DualPair(1)), [1.0], [0.0])
        assert ev.value == 1.0 and ev.witness.xstar[0] == 0.5

    NAN_GRAPH = FiniteGraph(pair=DualPair(1), points=(
        PairedPoint([0.0], [np.nan]), PairedPoint([1.0], [1.0])))

    def test_finite_graph_scans_skip_a_nan_point(self):
        # phi, the gap and the fuzzy gap at (1, 1) all come from (1, 1)
        ev = phi(self.NAN_GRAPH, [1.0], [1.0])
        assert (ev.value, ev.status) == (1.0, "exact")
        assert ev.witness.x[0] == 1.0
        for rep in (gap(self.NAN_GRAPH, PairedPoint([1.0], [1.0])),
                    fuzzy_gap_dual(self.NAN_GRAPH, np.array([1.0]),
                                   singleton([1.0]))):
            assert (rep.value, rep.status, rep.method) == (
                0.0, "exact", "enumeration")
            assert rep.witness.x[0] == 1.0 and rep.witness.xstar[0] == 1.0

    def test_phi_of_nan_pieces_only_is_a_lower_bound(self):
        G = FiniteGraph(pair=DualPair(1), points=(
            PairedPoint([0.0], [np.nan]),))
        ev = phi(G, [1.0], [1.0])
        assert (ev.value, ev.status, ev.witness) == (
            -np.inf, "lower_bound", None)

    def test_overflowing_finite_graph_has_no_gap_witness(self):
        G = FiniteGraph(pair=DualPair(1), points=(
            PairedPoint([1e200], [1e200]),))
        with pytest.raises(ResolventError, match="no graph points"):
            gap(G, PairedPoint([0.0], [0.0]))
        rep = fuzzy_gap_dual(G, np.zeros(1), singleton([0.0]))
        assert rep.value == np.inf and rep.witness is None

    def test_monotone_check_skips_a_nan_pair(self):
        pts = (PairedPoint([0.0], [0.0]), PairedPoint([1.0], [-1.0]))
        for extra in ((), (PairedPoint([2.0], [np.nan]),)):
            v = monotone_check(FiniteGraph(pair=DualPair(1),
                                           points=pts + extra), budget=10)
            assert not v.ok and v.worst_value == -1.0
            assert [p.x[0] for p in v.witness] == [0.0, 1.0]

    def test_sample_radius_skips_a_component_with_nan(self):
        @dataclass(frozen=True)
        class Rows(MonotoneOperator):
            X: np.ndarray = None
            Xs: np.ndarray = None

            def graph_rows(self, budget, seed):
                return self.X, self.Xs

        S = Rows(pair=DualPair(2), X=np.array([[np.nan, 9.0], [2.0, 1.0]]),
                 Xs=np.array([[0.5, -0.5], [1.0, -7.0]]))
        assert S.sample_radius() == 7.0
        S = Rows(pair=DualPair(2), X=np.full((1, 2), np.nan),
                 Xs=np.full((1, 2), np.nan))
        assert S.sample_radius() == 1.0

    def test_first_min(self):
        assert first_min(np.array([np.nan, 2.0, 1.0, 1.0])) == 2
        assert first_min(np.array([np.nan, np.inf])) is None
        assert first_min(np.array([3.0, -np.inf, -np.inf])) == 1
        assert first_min(np.empty(0)) is None
