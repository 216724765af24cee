"""Douglas-Rachford over row stacks: the stacked run against its point
runs, bit for bit, and the sum layers on it (``SumOp`` graph samples and
the probe sweep of ``sum_test``) against their point-by-point loops."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotone_lab import (
    DualPair,
    FiniteGraph,
    IndicatorFn,
    Linear,
    MonotoneOperator,
    NormFn,
    NormTag,
    PairedPoint,
    ResolventError,
    Shift,
    Subdifferential,
    SumOp,
    box,
    check_fpv,
    gap,
    interval,
    inverse,
    normal_cone,
)
from monotone_lab import harness
from monotone_lab import quasidensity as qd
from monotone_lab.operators import _cloud, add, parallel_sum
from monotone_lab.solvers import douglas_rachford, sum_resolvent
from test_rows import _same_report

PAIR1 = DualPair(1)
IDENTITY = Linear(pair=PAIR1, M=np.array([[1.0]]))


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


class TestDouglasRachfordRows:
    # A projects onto [0, 1]^2, B onto a box of its own per row: rows 0,
    # 1 and 3 stop after 3, 3 and 26 iterations, row 2's boxes are
    # disjoint and it runs to the cap
    LO = np.array([[-1.0, -1.0], [0.5, 0.5], [2.0, 0.0], [0.2, 0.2]])
    HI = np.array([[0.5, 0.5], [4.0, 4.0], [3.0, 1.0], [0.3, 0.3]])
    Z = np.array([[3.0, 3.0], [-2.0, -2.0], [0.7, 0.7], [-7.0, -7.0]])

    @staticmethod
    def _prox_a(v, _rows=...):
        return np.clip(v, 0.0, 1.0)

    def _point_run(self, i, max_iter):
        calls = []

        def prox_b(v, _rows):
            calls.append(1)
            return np.clip(v, self.LO[i], self.HI[i])

        return douglas_rachford(self._prox_a, prox_b, self.Z[i],
                                max_iter=max_iter), len(calls)

    def _stacked_prox_b(self, calls):
        def prox_b(v, rows):
            calls.append(np.arange(4)[rows].tolist())
            return np.clip(v, self.LO[rows], self.HI[rows])
        return prox_b

    def test_rows_are_their_point_runs(self):
        X, res, ok = douglas_rachford(
            self._prox_a, self._stacked_prox_b([]), self.Z, max_iter=50)
        assert ok == (True, True, False, True)
        assert res.shape == (4,)
        iters = []
        for i in range(4):
            (x, r, c), n = self._point_run(i, 50)
            iters.append(n)
            assert np.array_equal(X[i], x)
            assert res[i] == r and isinstance(r, float)
            assert ok[i] is c
        assert iters == [3, 3, 50, 26]
        assert res[2] > 1e-12 and not ok[2]

    def test_stopped_rows_are_left_out(self):
        calls = []
        douglas_rachford(self._prox_a, self._stacked_prox_b(calls), self.Z,
                         max_iter=50)
        assert calls == ([[0, 1, 2, 3]] * 3 + [[2, 3]] * 23 + [[2]] * 24)

    def test_an_empty_stack_runs_no_iteration(self):
        calls = []
        X, res, ok = douglas_rachford(self._prox_a, self._stacked_prox_b(
            calls), np.empty((0, 2)))
        assert X.shape == (0, 2) and res.shape == (0,) and ok == ()
        assert calls == []

    def test_a_point_returns_scalars(self):
        x, r, c = douglas_rachford(self._prox_a, self._prox_a, self.Z[0])
        assert x.shape == (2,) and type(r) is float and type(c) is bool

    def test_no_iteration_leaves_every_row_unconverged(self):
        X, res, ok = douglas_rachford(self._prox_a, self._prox_a, self.Z,
                                      max_iter=0)
        assert np.array_equal(X, self._prox_a(self.Z))
        assert np.all(res == np.inf) and ok == (False,) * 4

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           m=st.integers(1, 5), lam=st.floats(0.05, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_sum_resolvent_rows_are_their_point_runs(self, seed, n, m, lam):
        rng = np.random.default_rng(seed)
        kind = (NormTag.L1, NormTag.L2, NormTag.LINF)[seed % 3]
        f = NormFn(n, float(rng.uniform(0.1, 2.0)), kind)
        lo = rng.uniform(-2.0, 0.0, n)
        g = IndicatorFn(box(lo, lo + rng.uniform(0.0, 2.0, n)))
        Z = rng.uniform(-4.0, 4.0, (m, n))
        X, res, ok = sum_resolvent(f.prox_lam, g.prox_lam, Z, lam)
        for i, z in enumerate(Z):
            x, r, c = sum_resolvent(f.prox_lam, g.prox_lam, z, lam)
            assert np.array_equal(X[i], x) and res[i] == r and ok[i] is c

    def test_sum_resolvent_row_at_the_cap(self):
        # a NaN row never meets the test and runs all 6000 iterations;
        # the finite rows stop on their own and are unaffected
        f, g = NormFn(2), IndicatorFn(box([-1.0, 0.0], [0.5, 2.0]))
        Z = np.array([[3.0, -1.0], [np.nan, 1.0], [0.2, 0.4], [-5.0, 7.0]])
        X, res, ok = sum_resolvent(f.prox_lam, g.prox_lam, Z, 0.7)
        assert ok == (True, False, True, True)
        for i, z in enumerate(Z):
            x, r, c = sum_resolvent(f.prox_lam, g.prox_lam, z, 0.7)
            assert _same(X[i], x) and _same(res[i], r) and ok[i] is c


@dataclass(frozen=True)
class _Capped(MonotoneOperator):
    """The identity map, whose resolvent fails, every row together, once
    an aim exceeds ``cap``; ``calls`` records the shape of each call."""

    cap: float = 1.0
    calls: list = field(default_factory=list, compare=False)

    def _resolve(self, z, lam):
        self.calls.append(z.shape)
        if np.any(z > self.cap):
            raise ResolventError("aim above the cap")
        return z / (1.0 + lam), z / (1.0 + lam), np.ones(z.shape[:-1], bool)

    def graph_rows(self, budget, seed):
        X = np.random.default_rng(seed).uniform(-1.0, 1.0, (budget, 1))
        return X, X


def _reference_graph_rows(S, budget, seed):
    """The point-by-point sample the stacked one replaces: every z of
    the cloud whose resolvent succeeds, in order."""
    scale = 2.0 * max(S.S.sample_radius(8, seed),
                      S.T.sample_radius(8, seed + 1))
    X, Xs = [], []
    for z in _cloud(S.pair.dim, budget, seed, scale):
        try:
            p = S.resolvent(z)
        except ResolventError:
            continue
        X.append(p.x)
        Xs.append(p.xstar)
    n = S.pair.dim
    return np.array(X).reshape(-1, n), np.array(Xs).reshape(-1, n)


# the summand -0.6 I is not monotone: Douglas-Rachford converges at
# z = 0, stalls at a finite residual near it and overflows to a NaN
# residual (kept, as a point run keeps it) further out
STALLING = SumOp(pair=PAIR1, S=Linear(pair=PAIR1, M=np.array([[-0.6]])),
                 T=normal_cone(PAIR1, interval(-1.0, 1.0)))


def _wrapped(S):
    """S, a shift of it and its inverse: the operators whose stacks S's
    resolvent resolves."""
    return (S, Shift(pair=S.pair, inner=S, dx=[0.25], dxstar=[-0.5]),
            inverse(S))


@dataclass(frozen=True)
class _Looped(MonotoneOperator):
    """``inner`` resolved one point at a time: the loop over the rows
    that stops at the first failure, as the reference for a stack."""

    inner: MonotoneOperator = None

    def _resolve(self, z, lam):
        if z.ndim == 1:
            p = self.inner.resolvent(z, lam)
            return p.x, p.xstar, True
        X, Xs = np.full_like(z, np.nan), np.full_like(z, np.nan)
        ok = np.zeros(len(z), dtype=bool)
        for i, row in enumerate(z):
            try:
                p = self.inner.resolvent(row, lam)
            except ResolventError:
                break
            X[i], Xs[i], ok[i] = p.x, p.xstar, True
        return X, Xs, ok

    def graph_rows(self, budget, seed):
        return self.inner.graph_rows(budget, seed)

    def contains(self, x, xstar, tol=1e-7):
        return self.inner.contains(x, xstar, tol)


def _looped(S):
    return _Looped(pair=S.pair, inner=S)


class TestSumOpRows:
    def test_stalled_rows_are_skipped(self):
        S = STALLING
        with np.errstate(all="ignore"):
            _, res, ok = sum_resolvent(lambda v, t: S.S.resolvent(v, t)[0],
                                       lambda v, t: S.T.resolvent(v, t)[0],
                                       np.linspace(-4.0, 4.0, 9)[:, None], 1.0)
            stalled = ~np.array(ok) & (res > 1e-6)
            assert stalled.any() and np.isnan(res).any() and any(ok)
            X, Xs = S.graph_rows(8, 1)
            RX, RXs = _reference_graph_rows(S, 8, 1)
        assert 0 < len(X) < 8
        assert _same(X, RX) and _same(Xs, RXs)

    def test_a_stalled_row_ends_the_rows(self):
        # a stalled row fails alone, on the sum and on its wrappers: the
        # rows before it are the loop's, which ends there, and the row
        # after it is resolved as well
        with np.errstate(all="ignore"):
            with pytest.raises(ResolventError, match="stalled at residual"):
                STALLING.resolvent(np.array([1.0]))
            Z = np.array([[0.0], [0.1], [1.0], [0.0]])
            for S in _wrapped(STALLING):
                X, Xs, ok = S.resolvent(Z)
                RX, RXs, rok = _looped(S).resolvent(Z)
                assert ok.tolist() == [True, True, False, True]
                assert rok.tolist() == [True, True, False, False]
                assert _same(X[:3], RX[:3]) and _same(Xs[:3], RXs[:3])
                assert _same(X[3], X[0]) and _same(Xs[3], Xs[0])
        X, Xs, ok = STALLING.resolvent(np.array([[0.0], [0.0]]))
        assert ok.all() and np.array_equal(X, np.zeros((2, 1)))

    def test_windowed_checks_equal_the_row_loop(self):
        # the window probes of a sum keep every point up to its first
        # stalled resolvent, as the row loop does: here they are the only
        # points in the window, and without them the premise is vacuous
        win = interval(0.2, 0.9)
        w, ws = np.array([0.55]), np.array([0.0])
        with np.errstate(all="ignore"):
            v = check_fpv(STALLING, win, w, ws, 20, 2)
            assert v.premise_holds and not v.vacuous
            assert v == check_fpv(_looped(STALLING), win, w, ws, 20, 2)

    def test_a_raising_summand_skips_only_its_points(self):
        capped = _Capped(pair=PAIR1, cap=1.5)
        S = SumOp(pair=PAIR1, S=capped, T=IDENTITY)
        for seed in range(4):
            X, Xs = S.graph_rows(12, seed)
            RX, RXs = _reference_graph_rows(S, 12, seed)
            assert 0 < len(X) < 12
            assert np.array_equal(X, RX) and np.array_equal(Xs, RXs)
        # the stack runs until the summand raises, then z goes by z
        capped.calls.clear()
        S.graph_rows(12, 0)
        k = capped.calls.count((12, 1))
        assert 0 < k < len(capped.calls) and set(capped.calls[k:]) == {(1,)}

    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.L2, NormTag.LINF])
    def test_rows_equal_points_on_each_pair(self, norm):
        pair = DualPair(2, norm)
        rng = np.random.default_rng(3)
        B, K = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        S = SumOp(pair=pair, S=Linear(pair=pair, M=B @ B.T + K - K.T),
                  T=Subdifferential(pair=pair, f=NormFn(2, 0.5)))
        X, Xs = S.graph_rows(10, 5)
        RX, RXs = _reference_graph_rows(S, 10, 5)
        assert len(X) == 10
        assert np.array_equal(X, RX) and np.array_equal(Xs, RXs)


def _reference_sum_test(S, T, mode, probes, seed, eta=1e-6, methods=None):
    """sum_test's sweep as one ``gap`` call per probe; the methods of
    the gaps are added to the set ``methods``."""
    out = harness.sum_test(S, T, mode, probes=0, seed=seed, eta=eta)
    if out["status"] != "ok":
        return out
    combined = add(S, T) if mode == "domain" else parallel_sum(S, T)
    probe_pts = qd.default_probes(combined, probes, seed)
    passed = failed = unproven = errors = 0
    worst, worst_status = 0.0, "exact"
    for p in probe_pts:
        try:
            rep = gap(combined, p, seed=seed)
        except ResolventError:
            errors += 1
            continue
        if methods is not None:
            methods.add(rep.method)
        if rep.value > worst:
            worst, worst_status = rep.value, rep.status
        if rep.value <= eta:
            passed += 1
        elif rep.status == "exact":
            failed += 1
        else:
            unproven += 1
    out.update(probes=len(probe_pts), passed=passed, failed=failed,
               unproven=unproven, errors=errors, worst_gap=worst,
               worst_gap_status=worst_status)
    return out


def _sum_cases(mode, norm, n):
    """(S, T) pairs whose interior witness the mode finds: the pair's
    norm or a monotone linear map, plus the normal cone of a box about 0
    (domain) or of a small one (range)."""
    pair = DualPair(n, norm)
    abs_op = Subdifferential(pair=pair, f=NormFn(n, 1.0, norm))
    if mode == "domain":
        return [(abs_op, normal_cone(pair, box(-np.ones(n),
                                               np.full(n, 0.5))))]
    linear = Linear(pair=pair, M=np.eye(n) + np.triu(np.ones((n, n)), 1)
                    - np.tril(np.ones((n, n)), -1))
    small = normal_cone(pair, box(np.full(n, -0.05), np.full(n, 0.04)))
    return [(abs_op, small), (linear, small)]


class TestSumTestSweep:
    @pytest.mark.parametrize("mode", ["domain", "range"])
    @pytest.mark.parametrize("norm", [NormTag.L1, NormTag.L2, NormTag.LINF])
    @pytest.mark.parametrize("n", [1, 2])
    def test_records_equal_the_per_probe_sweep(self, mode, norm, n):
        for S, T in _sum_cases(mode, norm, n):
            out = harness.sum_test(S, T, mode, probes=3, seed=2)
            assert out["status"] == "ok"
            assert out == _reference_sum_test(S, T, mode, 3, 2)

    def test_failed_rows_take_gap(self, monkeypatch):
        # a probe whose point run stalls takes the sampled bound, so its
        # row stalls too: that probe alone takes gap's scan, the others
        # the oracle's value
        S, T = STALLING.S, STALLING.T
        with np.errstate(all="ignore"):
            methods = set()
            ref = _reference_sum_test(S, T, "domain", 3, 1, methods=methods)
            calls, draws = [], []
            monkeypatch.setattr(qd, "gap", lambda *a, **k: calls.append(1)
                                or gap(*a, **k))
            rows = SumOp.graph_rows
            monkeypatch.setattr(SumOp, "graph_rows", lambda self, budget, seed:
                                draws.append(budget) or rows(self, budget,
                                                              seed))
            out = harness.sum_test(S, T, "domain", probes=3, seed=1)
        assert methods == {"resolvent", "sampled"}
        assert out == ref and out["status"] == "ok"
        # the failed rows share one scanned draw of 100 graph rows
        assert calls == [] and draws.count(100) == 1


@dataclass(frozen=True)
class _Scripted(MonotoneOperator):
    """The identity map, whose resolvent fails at the aims z in ``fail``
    (as tuples), whichever call or row brings them."""

    fail: frozenset = frozenset()

    def _resolve(self, z, lam):
        ok = np.array([tuple(r) not in self.fail
                       for r in np.atleast_2d(z)]).reshape(z.shape[:-1])
        if not ok.any():
            raise ResolventError("scripted failure")
        x = np.where(ok[..., None], z / (1.0 + lam), np.nan)
        return x, x, ok

    def graph_rows(self, budget, seed):
        X = np.random.default_rng(seed).uniform(-1.0, 1.0, (budget, 1))
        return X, X


class TestOracleGaps:
    PROBES = [PairedPoint([a], [b]) for a, b in
              ((0.5, 1.0), (-2.0, 0.3), (1.5, -1.5), (0.0, 4.0))]

    def test_ok_rows_are_gap_bit_for_bit(self):
        # the probe whose aim x + x* = 0 fails takes the scan, as in gap
        S = _Scripted(pair=PAIR1, fail={(0.0,)})
        reports = qd.gaps(S, self.PROBES)
        assert [r.method for r in reports] == ["resolvent"] * 2 + [
            "sampled", "resolvent"]
        for q, rep in zip(self.PROBES, reports):
            assert _same_report(rep, gap(S, q))

    def test_other_paths_equal_gap(self):
        pair = DualPair(1, NormTag.L1)
        graph = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [1.0]),))
        # the QP, a non-monotone map, a finite graph, an l1 normal cone
        cases = ((Linear(pair=pair, M=np.array([[1.0]])), "qp"),
                 (Linear(pair=PAIR1, M=np.array([[-1.0]])), "sampled"),
                 (graph, "enumeration"),
                 (normal_cone(pair, interval(0.0, 1.0)), "sampled"))
        for S, method in cases:
            reports = qd.gaps(S, self.PROBES)
            assert {r.method for r in reports} == {method}
            for q, rep in zip(self.PROBES, reports):
                assert _same_report(rep, gap(S, q))
        assert qd.gaps(IDENTITY, []) == []

    def test_l2_rows_equal_gap(self):
        S = add(Subdifferential(pair=PAIR1, f=NormFn(1)),
                normal_cone(PAIR1, interval(-1.0, 0.5)))
        for q, rep in zip(self.PROBES, qd.gaps(S, self.PROBES)):
            assert rep.method == "resolvent" and _same_report(rep, gap(S, q))


class TestProbeGaps:
    LINF = DualPair(2, NormTag.LINF)

    def test_sampled_probes_share_one_draw(self, monkeypatch):
        # off the Euclidean pair a sum's probe gaps are sampled: one
        # draw of its graph rows serves every probe, each report gap's
        norm = Subdifferential(pair=self.LINF, f=NormFn(2, 1.0, NormTag.LINF))
        S = add(norm, normal_cone(self.LINF, box(np.full(2, -0.05),
                                                 np.full(2, 0.04))))
        probes = qd.default_probes(S, 4, 0)
        draws = []
        rows = SumOp.graph_rows
        monkeypatch.setattr(SumOp, "graph_rows", lambda self, budget, seed:
                            draws.append(seed) or rows(self, budget, seed))
        reports = qd.gaps(S, probes, seed=3)
        assert draws == [3]
        for q, rep in zip(probes, reports):
            assert rep.method == "sampled"
            assert _same_report(rep, gap(S, q, seed=3))

    def test_qp_probes_equal_gap(self):
        S = Linear(pair=self.LINF, M=np.eye(2))
        q = PairedPoint([1.0, 0.0], [0.0, 1.0])
        [rep] = qd.gaps(S, [q])
        assert rep.method == "qp" and _same_report(rep, gap(S, q))
