"""Windowed class checks, the negative-infimum criterion and strong
maximality with fuzz sets."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import (
    Ball,
    Capsule,
    DualPair,
    FiniteGraph,
    IndicatorFn,
    Linear,
    NormFn,
    NormTag,
    NormalCone,
    PairedPoint,
    Polytope,
    Subdifferential,
    box,
    check_fp,
    check_fpv,
    fuzzy_gap_dual,
    fuzzy_gap_primal,
    interval,
    ni_infimum,
    normal_cone,
    singleton,
    strong_max_dual,
    strong_max_primal,
    theta,
)
from monotone_lab.operators import inverse
from monotone_lab.quasidensity import fuzz_orbit
from monotone_lab.spaces import first_min, row_dots, vector_norm

PAIR1 = DualPair(1, NormTag.L2)
ABS_OP = Subdifferential(pair=PAIR1, f=NormFn(1))
CONE_OP = NormalCone(pair=PAIR1, f=IndicatorFn(interval(-1.0, 1.0)))
IDENTITY = Linear(pair=PAIR1, M=np.array([[1.0]]))


def arr(*vals):
    return np.array([float(v) for v in vals])


class TestWindowedChecks:
    def test_fpv_graph_point_passes(self):
        U = interval(-2.0, 2.0)
        v = check_fpv(ABS_OP, U, arr(1.0), arr(1.0))
        assert v.premise_holds
        assert v.conclusion == "in"
        assert v.consistent_with_class
        assert not v.vacuous

    def test_fpv_off_graph_point_fails_premise(self):
        # (0.4, 0.5) is monotonically violated by nearby graph points
        U = interval(-2.0, 2.0)
        v = check_fpv(ABS_OP, U, arr(0.4), arr(0.5))
        assert not v.premise_holds
        assert v.premise_witness is not None
        # the witness really violates the premise
        p = v.premise_witness
        assert float((p.x[0] - 0.4) * (p.xstar[0] - 0.5)) < 0
        assert v.consistent_with_class

    def test_fpv_vacuous_window(self):
        U = interval(5.0, 6.0)
        v = check_fpv(CONE_OP, U, arr(5.5), arr(0.0))
        assert v.vacuous
        assert not v.premise_holds

    def test_fp_dual_window(self):
        Ut = interval(-0.5, 0.5)
        v = check_fp(ABS_OP, Ut, arr(0.0), arr(0.0))
        assert v.premise_holds
        assert v.conclusion == "in"

    def test_fp_detects_dual_violation(self):
        # (0.5, 0.2): graph points (0, s*) with s* near 0.2 violate it
        Ut = interval(-0.9, 0.9)
        v = check_fp(ABS_OP, Ut, arr(0.5), arr(0.2))
        assert not v.premise_holds
        assert v.consistent_with_class

    def test_anchor_must_be_interior(self):
        U = interval(-1.0, 1.0)
        with pytest.raises(ValueError):
            check_fpv(ABS_OP, U, arr(1.0), arr(1.0))  # boundary point

    def test_no_premise_and_out_on_maximal_samples(self):
        # windowed premise plus membership failure never co-occur on
        # maximal families over many trial points
        rng = np.random.default_rng(2)
        U = interval(-3.0, 3.0)
        for _ in range(50):
            w = rng.uniform(-2.5, 2.5)
            ws = rng.uniform(-2.5, 2.5)
            v = check_fpv(ABS_OP, U, arr(w), arr(ws), budget=150, seed=1)
            assert v.consistent_with_class


def scalar_interior_mask(region, Y, tol=1e-9):
    """Row-by-row interior test through 2n+1 scalar ``contains`` calls
    (the closed form on balls), the path the batched mask replaces; a
    row is held to its own entry of a per-row ``tol``."""
    def one(y, tol):
        if isinstance(region, Ball):
            return region.radius > 0 and vector_norm(
                y - region.center, region.norm) < region.radius - tol
        delta = 16 * max(tol, 1e-9)
        probes = [y] + [y + sign * delta * e for e in np.eye(region.dim)
                        for sign in (1, -1)]
        return all(region.contains(p, tol) for p in probes)
    return np.array([one(y, t) for y, t in
                     zip(Y, np.broadcast_to(tol, len(Y)))], dtype=bool)


PAIR2 = DualPair(2, NormTag.L2)
WINDOW_OPS = {
    "psd+skew": Linear(pair=PAIR2, M=np.array([[1.0, 0.7], [-0.7, 0.3]])),
    "norm": Subdifferential(pair=PAIR2, f=NormFn(2)),
    "box cone": NormalCone(pair=PAIR2, f=IndicatorFn(
        box(arr(-1.0, -0.5), arr(1.0, 0.5)))),
}
WINDOW_REGIONS = {
    "box": box(arr(-0.8, -0.6), arr(0.9, 0.7)),
    "l2 ball": Ball(center=arr(0.1, 0.0), radius=0.9),
    "l1 ball": Ball(center=arr(0.0, 0.1), radius=1.0, norm=NormTag.L1),
    "capsule": Capsule(a=arr(-0.5, 0.0), b=arr(0.5, 0.2), radius=0.5),
}


class TestBatchedWindowTest:
    """The verdicts of the windowed checks are those of the scalar,
    row-by-row interior test.  A non-box hull takes the same per-probe
    ``contains`` path either way; the capsule stands for it."""

    @pytest.mark.parametrize("op", sorted(WINDOW_OPS))
    @pytest.mark.parametrize("region", sorted(WINDOW_REGIONS))
    @pytest.mark.parametrize("check", ["fpv", "fp"])
    def test_verdict_matches_scalar_interior_test(self, monkeypatch, op,
                                                  region, check):
        S, R = WINDOW_OPS[op], WINDOW_REGIONS[region]
        fn = check_fpv if check == "fpv" else check_fp
        for k, (w, ws) in enumerate([(arr(0.1, 0.05), arr(0.2, -0.1)),
                                     (arr(0.3, -0.2), arr(0.0, 0.0)),
                                     (arr(-0.2, 0.1), arr(0.4, 0.3))]):
            got = fn(S, R, w, ws, budget=60, seed=k)
            with monkeypatch.context() as mp:
                mp.setattr(type(R), "interior_mask", scalar_interior_mask)
                ref = fn(S, R, w, ws, budget=60, seed=k)
            assert (got.premise_holds, got.vacuous, got.conclusion) == \
                (ref.premise_holds, ref.vacuous, ref.conclusion)
            if ref.premise_witness is None:
                assert got.premise_witness is None
            else:
                assert np.array_equal(got.premise_witness.x,
                                      ref.premise_witness.x)
                assert np.array_equal(got.premise_witness.xstar,
                                      ref.premise_witness.xstar)


class TestNiInfimum:
    def test_identity_at_origin(self):
        assert ni_infimum(IDENTITY, arr(0.0), arr(0.0)) == pytest.approx(0.0)

    def test_identity_offset(self):
        # inf_s (s - 2) * s = -1 at s = 1
        assert ni_infimum(IDENTITY, arr(2.0), arr(0.0)) == pytest.approx(-1.0)

    def test_origin_graph(self):
        G = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [0.0]),))
        assert ni_infimum(G, arr(1.0), arr(1.0)) == pytest.approx(1.0)

    def test_complement_of_theta(self):
        rng = np.random.default_rng(4)
        pts = tuple(PairedPoint([float(x)], [float(np.tanh(x))])
                    for x in np.linspace(-2, 2, 9))
        G = FiniteGraph(pair=PAIR1, points=pts)
        for _ in range(60):
            ws, wss = rng.normal(size=2) * 2
            ni = ni_infimum(G, arr(ws), arr(wss))
            th = theta(G, arr(ws), arr(wss)).value
            assert ni + th == pytest.approx(ws * wss, abs=1e-8)

    def test_nonnegative_on_graph_points_of_monotone_map(self):
        # at a swapped graph point of a monotone map the inf is <= 0
        # only through genuinely violating pairs; identity keeps it >= 0
        assert ni_infimum(IDENTITY, arr(1.0), arr(1.0)) >= -1e-12


class TestStrongMax:
    def test_dual_kink_interval(self):
        res = strong_max_dual(ABS_OP, arr(0.0), interval(0.2, 0.4))
        assert res.premise_holds
        assert res.found
        assert res.residual <= 1e-6
        assert 0.2 - 1e-9 <= res.point.xstar[0] <= 0.4 + 1e-9

    def test_dual_singleton_on_identity(self):
        res = strong_max_dual(IDENTITY, arr(1.0),
                              singleton(arr(1.0)))
        assert res.found
        assert res.point.xstar[0] == pytest.approx(1.0)

    def test_dual_premise_failure(self):
        res = strong_max_dual(ABS_OP, arr(0.0), interval(2.0, 3.0))
        assert not res.premise_holds
        assert res.status == "premise_failed"
        assert res.premise_witness is not None

    def test_primal_normal_cone_ray(self):
        res = strong_max_primal(CONE_OP, interval(-1.0, 1.0), arr(5.0))
        assert res.premise_holds
        assert res.found
        assert res.point.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_primal_premise_failure(self):
        # demanding w* = 0 on the far side of the domain breaks it
        res = strong_max_primal(IDENTITY, interval(2.0, 3.0), arr(0.0))
        assert not res.premise_holds

    def test_residual_bound_across_configs(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            c = rng.uniform(-1.0, 1.0)
            res = strong_max_dual(
                IDENTITY, arr(c),
                interval(c - 0.3, c + 0.3))
            assert res.premise_holds
            assert res.found and res.residual <= 1e-6

    def test_the_orbit_refutes_a_premise_the_sample_passed(self):
        # Mw = (0.967, 0.02) lies outside Wt, so the conclusion fails and
        # the premise must too; the sampled rows miss it, the orbit's
        # fixed point breaks it
        S = Linear(pair=PAIR2, M=np.array([[1.22, -0.92], [1.84, 0.86]]))
        w = arr(0.31, -0.64)
        Wt = box(arr(-0.36, -0.61), arr(0.65, 0.23))
        res = strong_max_dual(S, w, Wt)
        assert (res.status, res.premise_holds, res.found) == (
            "premise_failed", False, False)
        p = res.premise_witness
        assert S.contains(p.x, p.xstar) == "yes"
        value = (p.x - w) @ p.xstar + Wt.support(w - p.x)
        assert value == pytest.approx(-0.0204, abs=5e-5)

    def test_the_orbit_end_is_resolved_once(self, monkeypatch):
        # the base residual at (w, v) is read off the orbit's last row:
        # no resolvent call beyond the sample's and the orbit's, and the
        # bits of S.residual(w, v)
        calls = []
        real = Subdifferential.resolvent

        def spy(self, z, *args):
            calls.append(np.shape(z))
            return real(self, z, *args)

        monkeypatch.setattr(Subdifferential, "resolvent", spy)
        w, Wt = arr(0.0), interval(0.2, 0.4)
        res = strong_max_dual(ABS_OP, w, Wt)
        run = list(calls)
        calls.clear()
        ABS_OP.graph_rows(200, 0)
        X, _, v = fuzz_orbit(ABS_OP, w, Wt)
        assert res.status == "found" and len(X) > 0
        assert len(run) == len(calls)
        assert res.residual == ABS_OP.residual(w, v)


def _orbit_case(seed, kind, n, norm, fuzz, side):
    """A maximal monotone operator (a monotone ``Linear`` map, the normal
    cone of a 4-point hull, or the subdifferential of the l2 or l1
    norm), a point and a box or l2-ball fuzz set on the given side."""
    rng = np.random.default_rng([seed, n, len(kind), len(norm), len(fuzz),
                                 len(side)])
    pair = DualPair(n, NormTag(norm))
    if kind == "linear":
        B, K = rng.normal(size=(2, n, n))
        S = Linear(pair=pair, M=0.5 * (B @ B.T + K - K.T))
    elif kind == "cone":
        S = normal_cone(pair, Polytope(vertices=rng.uniform(-1.5, 1.5,
                                                            (4, n))))
    else:
        S = Subdifferential(pair=pair, f=NormFn(n, 1.0, NormTag(kind)))
    w = rng.uniform(-1.5, 1.5, n)
    if fuzz == "box":
        lo = rng.uniform(-1.5, 0.5, n)
        F = box(lo, lo + rng.uniform(0.0, 1.0, n))
        reach = float(np.max(np.sum(F.vertices ** 2, axis=1)))
    else:
        center, radius = rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 1.0)
        F = Ball(center=center, radius=radius)
        reach = (float(np.linalg.norm(center)) + radius) ** 2
    return S, w, F, reach


class TestFuzzOrbitSweep:
    """Both strong-maximality searches over 384 seeded maximal cases:
    the fixed-point orbit decides every one, each verdict checked on its
    own.  A seeded sweep, not hypothesis: at an exact fixed point the
    residual is 2 delta and the premise value -delta^2, so a thin band
    of delta passes neither test."""

    CASES = list(itertools.product(
        range(4), ("linear", "cone", "l2", "l1"), (1, 2),
        ("l1", "l2", "linf"), ("box", "ball"), ("dual", "primal")))

    def test_every_case_is_decided_and_checked(self):
        statuses = set()
        for seed, kind, n, norm, fuzz, side in self.CASES:
            S, w, F, reach = _orbit_case(seed, kind, n, norm, fuzz, side)
            if side == "dual":
                res = strong_max_dual(S, w, F, 16, seed)
            else:
                res = strong_max_primal(S, F, w, 16, seed)
            statuses.add(res.status)
            assert res.status != "unknown", (seed, kind, n, norm, fuzz,
                                             side)
            if res.status == "found":
                pt = res.point
                y = pt.xstar if side == "dual" else pt.x
                assert F.dist(y, NormTag.L2) <= 1e-9
                assert S.contains(pt.x, pt.xstar) == "yes"
            else:
                p = res.premise_witness
                assert S.contains(p.x, p.xstar) == "yes"
                if side == "dual":
                    value = (p.x - w) @ p.xstar + F.support(w - p.x)
                else:
                    value = p.x @ (p.xstar - w) + F.support(w - p.xstar)
                assert value < -1e-10
            if norm == "l2":
                fz = (fuzzy_gap_dual(S, w, F) if side == "dual"
                      else fuzzy_gap_primal(S, F, w))
                assert fz.value <= 1e-12 * (1.0 + w @ w + reach)
        assert statuses == {"found", "premise_failed"}


SKEW2 = Linear(pair=PAIR2, M=np.array([[0.0, 1.0], [-1.0, 0.0]]))
GRAPH1 = FiniteGraph(pair=PAIR1, points=(PairedPoint([0.0], [0.5]),
                                         PairedPoint([1.0], [2.0]),
                                         PairedPoint([-1.0], [-1.0])))
PINNED_OPS = {"abs": ABS_OP, "cone": CONE_OP, "identity": IDENTITY,
              "skew": SKEW2, "graph": GRAPH1}


def pinned(a, b):
    """Values recorded before the range side ran on S^{-1}."""
    return pytest.approx(b, rel=1e-12, abs=1e-15) == a


class TestRangeSideOnInverse:
    """check_fp and strong_max_primal run their dual-side twins on
    S^{-1}; the results are pinned to the mirrored routines they
    replaced (the skew search to the fixed-point orbit that replaced
    it), and every witness or point lies in G(S)."""

    @pytest.mark.parametrize("op, window, w, ws, premise, concl, wit", [
        ("abs", (-0.5, 0.5), [0.0], [0.0], True, "in", None),
        ("abs", (-0.5, 0.5), [0.5], [0.2], False, "out",
         ([0.0], [0.49274857874416966])),
        ("cone", (0.5, 3.0), [1.0], [1.0], True, "in", None),
        ("cone", (-1.0, 1.0), [0.5], [0.5], False, "out", ([1.0], [0.0])),
        ("identity", (0.0, 2.0), [1.0], [1.2], False, "out",
         ([1.1027647524073134], [1.1027647524073134])),
        ("skew", None, [0.1, 0.2], [0.3, -0.1], False, "out",
         ([0.9945229996597038, 0.6317071082430643],
          [0.6317071082430643, -0.9945229996597038])),
        ("skew", None, [0.1, 0.2], [0.2, -0.1], True, "in", None),
        ("graph", (-1.5, 2.5), [0.3], [0.1], False, "out", ([0.0], [0.5])),
        ("graph", (-1.5, 2.5), [1.0], [2.0], True, "in", None),
    ])
    def test_check_fp_pinned(self, op, window, w, ws, premise, concl, wit):
        S = PINNED_OPS[op]
        region = (box(arr(-1, -1), arr(1, 1)) if window is None
                  else interval(*window))
        v = check_fp(S, region, arr(*w), arr(*ws))
        assert (v.premise_holds, v.conclusion, v.vacuous) == (premise, concl,
                                                             False)
        if wit is None:
            assert v.premise_witness is None
        else:
            p = v.premise_witness
            assert pinned(p.x.tolist(), wit[0])
            assert pinned(p.xstar.tolist(), wit[1])
            assert S.contains(p.x, p.xstar) == "yes"

    @pytest.mark.parametrize("op, W, ws, status, point, residual", [
        ("cone", (-1.0, 1.0), [5.0], "found", ([1.0], [5.0]), 0.0),
        ("identity", (2.0, 3.0), [0.0], "premise_failed", None, np.inf),
        ("abs", (-0.5, 0.5), [0.3], "found", ([0.0], [0.3]), 0.0),
        # the fixed-point orbit lands on M^-1 w* = (0.25, 0.5)
        ("skew", None, [0.5, -0.25], "found",
         ([0.25000000000005684, 0.5000000000001137], [0.5, -0.25]),
         1.2710574864626038e-13),
        ("graph", (0.5, 1.5), [2.0], "found", ([1.0], [2.0]), 0.0),
        ("graph", (0.5, 1.5), [1.0], "unknown", ([0.5], [1.0]), 1.0),
    ])
    def test_strong_max_primal_pinned(self, op, W, ws, status, point,
                                      residual):
        S = PINNED_OPS[op]
        W = box(arr(-1, -1), arr(1, 1)) if W is None else interval(*W)
        res = strong_max_primal(S, W, arr(*ws))
        assert res.status == status
        assert pinned(res.residual, residual)
        if point is None:
            assert res.point is None
            p = res.premise_witness
            assert pinned(p.x.tolist(), [0.9929940132070163])
            assert S.contains(p.x, p.xstar) == "yes"
        else:
            assert pinned(res.point.x.tolist(), point[0])
            assert pinned(res.point.xstar.tolist(), point[1])
            if status == "found":
                assert S.contains(res.point.x, res.point.xstar) == "yes"

    def test_shape_errors_name_the_callers_argument(self):
        Ut = interval(-1.0, 1.0)
        with pytest.raises(ValueError, match="wstar"):
            check_fp(ABS_OP, Ut, arr(0.0), arr(0.0, 0.0))
        with pytest.raises(ValueError, match="wstar"):
            strong_max_primal(ABS_OP, interval(-1.0, 1.0), arr(0.0, 0.0))


# --- the windowed check of one stacked interior pass, against the
# algorithm it replaced: the reference point in its own
# ``interior_contains``, the probes from np.repeat/np.tile and two
# interleaves, and two vstacks before the candidates' interior pass


def _interleave_reference(P, Q):
    j = len(Q)
    return np.vstack([np.stack([P[:j], Q], axis=1).reshape(-1, P.shape[1]),
                      P[j:]])


def _window_probes_reference(S, U, wstar, base_xstar, seed):
    empty = np.empty((0, S.pair.dim))
    if isinstance(S, FiniteGraph):
        return empty, empty
    rng = np.random.default_rng(seed + 17)
    targets = U.project(np.vstack([
        rng.normal(size=(8, U.dim)) * 3.0, np.zeros((1, U.dim))]))
    partners = np.vstack([wstar, base_xstar[:6]])
    aims = np.repeat(targets, len(partners), axis=0)
    P, Ps, ok = S.resolvent(aims + np.tile(partners, (len(targets), 1)))
    k = int(np.cumprod(ok).sum())
    if k == 0:
        return empty, empty
    Q, Qs, ok = S.resolvent(aims[:k] + Ps[:k])
    j = int(np.cumprod(ok).sum())
    m = min(j + 1, k)
    return (_interleave_reference(P[:m], Q[:j]),
            _interleave_reference(Ps[:m], Qs[:j]))


def _windowed_check_reference(S, U, w, wstar, budget, seed):
    """(premise_holds, witness rows or None, conclusion, vacuous)."""
    if not U.interior_contains(w):
        raise ValueError("the reference point must lie inside the window")
    X, Xs = S.graph_rows(budget, seed)
    PX, PXs = _window_probes_reference(S, U, wstar, Xs, seed)
    X, Xs = np.vstack([X, PX]), np.vstack([Xs, PXs])
    inside = U.interior_mask(X, tol=1e-12)
    X, Xs = X[inside], Xs[inside]
    vals = row_dots(X - w, Xs - wstar)
    i = first_min(vals)
    premise = (np.inf if i is None else float(vals[i])) >= -1e-10
    member = S.contains(w, wstar, tol=1e-7)
    return (premise and len(X) > 0, None if premise else (X[i], Xs[i]),
            {"yes": "in", "no": "out"}.get(member, "unknown"), len(X) == 0)


def _check_reference(cls, S, U, w, ws, budget, seed):
    if cls == "fpv":
        return _windowed_check_reference(S, U, w, ws, budget, seed)
    held, wit, concl, vac = _windowed_check_reference(
        inverse(S), U, ws, w, budget, seed)
    return held, None if wit is None else wit[::-1], concl, vac


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_same_verdict(got, ref):
    held, wit, concl, vac = ref
    assert (got.premise_holds, got.conclusion, got.vacuous) == \
        (held, concl, vac)
    if wit is None:
        assert got.premise_witness is None
    else:
        assert _bits(got.premise_witness.x) == _bits(wit[0])
        assert _bits(got.premise_witness.xstar) == _bits(wit[1])


@st.composite
def window_cases(draw):
    """(S, U, w, w*): a finite graph, a linear map, a normal cone or a
    norm subdifferential in 1-3 D, and an interval, box, hull or ball
    window with w inside it, near its edge or outside."""
    d = draw(st.integers(1, 3))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    point = arrays(np.float64, (d,), elements=coord)
    pair = DualPair(d, draw(st.sampled_from(list(NormTag))))
    kind = draw(st.sampled_from(["graph", "linear", "cone", "norm"]))
    if kind == "graph":
        S = FiniteGraph(pair=pair, points=[
            PairedPoint(draw(point), draw(point))
            for _ in range(draw(st.integers(1, 8)))])
    elif kind == "linear":
        S = Linear(pair=pair, M=draw(arrays(np.float64, (d, d),
                                            elements=coord)))
    elif kind == "cone":
        lo = draw(point)
        S = NormalCone(pair=pair, f=IndicatorFn(box(lo, lo + 1.0)))
    else:
        S = Subdifferential(pair=pair, f=NormFn(d, kind=draw(
            st.sampled_from(list(NormTag)))))
    window = draw(st.sampled_from(["box", "hull", "ball"]))
    c = draw(point)
    if window == "box":  # an interval in 1-D
        U = box(c - 1.0, c + draw(st.floats(0.1, 2.0)))
        anchor = c
    elif window == "hull":
        V = c + draw(arrays(np.float64, (d + 2, d),
                            elements=st.floats(-1.5, 1.5)))
        U = Polytope(vertices=V)
        anchor = V.mean(axis=0)
    else:
        U = Ball(center=c, radius=draw(st.floats(0.2, 2.0)),
                 norm=draw(st.sampled_from(list(NormTag))))
        anchor = c
    w = anchor + draw(arrays(np.float64, (d,),
                             elements=st.floats(-1.2, 1.2)))
    return S, U, w, draw(point)


class TestOneStackedInteriorPass:
    """``check_fpv`` and ``check_fp`` test the graph rows, the window
    probes and the reference point in one interior pass; their verdicts
    and witnesses equal, bit for bit, those of the separate passes."""

    @given(case=window_cases(), cls=st.sampled_from(["fpv", "fp"]),
           seed=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None)
    def test_verdict_is_the_separate_passes_bit_for_bit(self, case, cls,
                                                         seed):
        S, U, w, ws = case
        fn = check_fpv if cls == "fpv" else check_fp
        try:
            ref = _check_reference(cls, S, U, w, ws, 30, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fn(S, U, w, ws, budget=30, seed=seed)
            return
        assert_same_verdict(fn(S, U, w, ws, budget=30, seed=seed), ref)

    @pytest.mark.parametrize("cls", ["fpv", "fp"])
    @pytest.mark.parametrize("op", sorted(WINDOW_OPS))
    def test_reference_point_keeps_its_own_tolerance(self, cls, op):
        # w + delta (delta = 1.6e-8) leaves [-1, 1] by 5e-10: inside the
        # reference point's 1e-9, outside the candidates' 1e-12
        S = WINDOW_OPS[op]
        U = box(arr(-1.0, -1.0), arr(1.0, 1.0))
        edge = 1.0 - 1.6e-8 + 5e-10
        assert U.dist(arr(edge + 1.6e-8, 0.0)) > 1e-12
        assert not U.interior_mask(arr(edge, 0.0)[None], 1e-12)[0]
        w = ws = arr(edge, 0.0)
        fn = check_fpv if cls == "fpv" else check_fp
        ref = _check_reference(cls, S, U, w, ws, 40, 5)
        assert_same_verdict(fn(S, U, w, ws, budget=40, seed=5), ref)

    def test_reference_point_outside_the_window_raises(self):
        U = interval(-1.0, 1.0)
        edge = arr(1.0 - 1.6e-8 + 2e-9)  # 2e-9 beyond the face
        with pytest.raises(ValueError, match="inside the window"):
            check_fpv(ABS_OP, U, edge, arr(1.0))
        with pytest.raises(ValueError, match="inside the window"):
            check_fp(ABS_OP, U, arr(0.0), edge)
