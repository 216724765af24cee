"""Convex function oracles: evaluation, conjugate, subdifferential,
prox, translation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import (
    Affine,
    Ball,
    DualPair,
    HalfSqNorm,
    IndicatorFn,
    NormFn,
    NormTag,
    Polytope,
    Quadratic,
    Subdifferential,
    SumFn,
    SumOp,
    SupportFn,
    Translate,
    box,
    interval,
    minimize,
)
import monotone_lab.functions as fn_mod
from monotone_lab.functions import separable_pieces
from monotone_lab.solvers import sum_resolvent

SQUARE = Polytope(vertices=np.array([[1.0, 1.0], [1.0, -1.0],
                                     [-1.0, 1.0], [-1.0, -1.0]]))
SQUARE_ROTATED = Polytope(vertices=np.array([[1.0, 0.0], [0.0, 1.0],
                                             [-1.0, 0.0], [0.0, -1.0]]))
ABS = NormFn(1)
HALF_SQ_1D = Quadratic(np.array([[1.0]]), np.array([0.0]))


def fn_families():
    return [
        HALF_SQ_1D,
        ABS,
        IndicatorFn(SQUARE),
        SupportFn(Polytope(vertices=SQUARE.vertices)),
        Affine(np.array([1.0, -2.0]), 0.5),
        HalfSqNorm(2),
        Translate(NormFn(2), shift=np.array([0.5, 0.0]),
                  tilt=np.array([0.0, 0.25]), offset=0.1),
    ]


class TestEval:
    def test_indicator(self):
        f = IndicatorFn(SQUARE)
        assert f.eval(np.zeros(2)) == 0.0
        assert f.eval(np.array([2.0, 0.0])) == np.inf

    def test_indicator_reads_its_set_within_1e_9(self):
        # eval allows the set 1e-9 of rounding; eval_within widens that
        # to its tol, never narrows it
        f = IndicatorFn(interval(-1.0, 1.0))
        assert f.eval(np.array([1.0 + 5e-10])) == 0.0
        assert f.eval(np.array([1.0 + 1e-8])) == np.inf
        assert f.eval_within(np.array([1.0 + 1e-8]), 1e-7) == 0.0
        assert f.eval_within(np.array([1.0 + 5e-10]), 0.0) == 0.0
        assert f.eval_within(np.array([1.0 + 1e-6]), 1e-7) == np.inf

    def test_support(self):
        f = SupportFn(SQUARE)
        assert f.eval(np.array([1.0, 2.0])) == 3.0

    def test_quadratic(self):
        assert HALF_SQ_1D.eval(np.array([3.0])) == 4.5

    @pytest.mark.parametrize("Q, b", [([[1.0]], [0.0, 1.0]),
                                      (np.eye(2), [0.0]),
                                      ([[1.0, 0.0]], [0.0, 0.0])])
    def test_quadratic_of_another_size_rejected(self, Q, b):
        # numpy would broadcast a 1x1 Q onto every entry of I + lam Q
        with pytest.raises(ValueError, match="Q has shape"):
            Quadratic(np.array(Q), np.array(b))


class TestConjugate:
    def test_abs_conjugate_is_unit_interval_indicator(self):
        g = ABS.conjugate_fn()
        assert g.eval(np.array([0.5])) == 0.0
        assert g.eval(np.array([2.0])) == np.inf

    def test_half_square_self_conjugate(self):
        assert HALF_SQ_1D.conjugate_fn().eval(np.array([3.0])) == \
            pytest.approx(4.5)

    def test_indicator_conjugate_is_support(self):
        f = IndicatorFn(SQUARE)
        assert f.conjugate_fn().eval(np.array([1.0, 2.0])) == \
            pytest.approx(3.0)

    def test_separable_sums_have_closed_forms_and_others_none(self):
        # |x| + x^2/2 has conjugate dist(y, [-1, 1])^2/2 by Moreau
        # composition, a staircase; in 2-D the l2 norm's sum is not
        # separable and has none
        g = SumFn(NormFn(1), HalfSqNorm(1)).conjugate_fn()
        for y in (0.0, 0.4, 1.5, -3.0):
            assert g.eval(np.array([y])) == pytest.approx(
                0.5 * max(0.0, abs(y) - 1.0) ** 2, abs=1e-12)
        assert SumFn(NormFn(2), HalfSqNorm(2)).conjugate_fn() is None
        # the support function of [0, 1] plus zero: f* is the indicator
        # of [0, 1]
        h = SumFn(SupportFn(interval(0.0, 1.0)),
                  Affine(np.array([0.0]), 0.0)).conjugate_fn()
        assert (h.eval(np.array([5.0])), h.eval(np.array([0.5]))) == \
            (np.inf, 0.0)


class TestSubdiffContains:
    def test_indicators_take_the_tolerance(self):
        # x* outside the dual ball of |x|, and x outside [0, 1], by
        # rounding far below tol
        assert NormFn(1).subdiff_contains(
            [-2.6], [-1 - 3.5e-9], tol=1e-7) == "yes"
        assert IndicatorFn(interval(0.0, 1.0)).subdiff_contains(
            [1 + 1e-9], [1.0], tol=1e-7) == "yes"
        assert NormFn(1).subdiff_contains([-2.6], [-1 - 1e-6],
                                          tol=1e-7) == "no"

    def test_abs_at_zero(self):
        assert ABS.subdiff_contains(np.array([0.0]), np.array([0.7])) == "yes"

    def test_abs_away_from_kink(self):
        assert ABS.subdiff_contains(np.array([1.0]), np.array([0.5])) == "no"

    def test_normal_cone_face_point(self):
        f = IndicatorFn(SQUARE)
        assert f.subdiff_contains(np.array([1.0, 0.0]),
                                  np.array([2.0, 0.0])) == "yes"

    def test_off_domain_is_no(self):
        f = IndicatorFn(SQUARE)
        assert f.subdiff_contains(np.array([2.0, 0.0]), np.zeros(2)) == "no"

    def test_without_a_closed_form_conjugate_the_residual_decides(self):
        # d(||x||_2 + 1e-9 ||x||^2/2) at x = (5e8, 0) is x/||x|| + 1e-9 x =
        # (1.5, 0), where f*(x*) = dist(x*, unit disc)^2/2e-9 = 1.25e8;
        # the sum is not separable, so the residual at the prox decides
        f = SumFn(NormFn(2), Quadratic(1e-9 * np.eye(2), np.zeros(2)))
        assert f.conjugate_fn() is None
        x = np.array([5e8, 0.0])
        assert f.subdiff_contains(x, np.array([1.5, 0.0]), tol=1e-6) == "yes"
        assert f.subdiff_contains(x, np.array([1.5, 1e-3]),
                                  tol=1e-6) == "no"


class TestProx:
    def test_soft_threshold(self):
        assert ABS.prox(np.array([2.0]))[0] == pytest.approx(1.0)
        # brute force over a grid
        grid = np.linspace(-3, 3, 6001)
        vals = 0.5 * (grid - 2.0) ** 2 + np.abs(grid)
        assert grid[np.argmin(vals)] == pytest.approx(1.0, abs=1e-3)

    def test_indicator_prox_is_projection(self):
        f = IndicatorFn(SQUARE)
        assert np.allclose(f.prox(np.array([2.0, 0.0])),
                           np.array([1.0, 0.0]), atol=1e-9)

    def test_zero_function_prox_is_identity(self):
        f = Affine(np.zeros(2), 0.0)
        z = np.array([1.3, -2.7])
        assert np.array_equal(f.prox(z), z)

    def test_sum_prox_matches_brute_force(self):
        f = SumFn(ABS, IndicatorFn(interval(-0.5, 2.0)))
        for z in (-3.0, 0.2, 1.7, 5.0):
            p = f.prox_lam(np.array([z]), 1.0)[0]
            grid = np.linspace(-0.5, 2.0, 20001)
            vals = np.abs(grid) + 0.5 * (grid - z) ** 2
            assert p == pytest.approx(grid[np.argmin(vals)], abs=1e-4)

    @given(z=arrays(np.float64, (2,),
                    elements=st.floats(-10, 10, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_prox_optimality(self, z):
        # the last has no closed-form conjugate
        for f in fn_families() + [SumFn(NormFn(2), HalfSqNorm(2))]:
            if f.dim != 2:
                continue
            p = f.prox(z)
            assert f.subdiff_contains(p, z - p, tol=1e-7) == "yes"


class TestSumResolvent:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
           lam=st.floats(0.05, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_sum_prox_is_the_sum_operator_resolvent(self, seed, n, lam):
        # no summand folds (an l2 or linf norm beside a box, an l1 norm
        # beside a non-box hull), so both run the one Douglas-Rachford
        # routine
        rng = np.random.default_rng(seed)
        kind = (NormTag.L1, NormTag.L2, NormTag.LINF)[seed % 3]
        lo = rng.uniform(-2.0, 0.0, n)
        f = NormFn(n, float(rng.uniform(0.1, 2.0)), kind)
        g = IndicatorFn(
            Polytope(vertices=rng.uniform(-2.0, 2.0, (n + 2, n)))
            if kind is NormTag.L1
            else box(lo, lo + rng.uniform(0.0, 2.0, n)))
        assert not SumFn(f, g).folds
        pair = DualPair(n)
        S = SumOp(pair=pair, S=Subdifferential(pair=pair, f=f),
                  T=Subdifferential(pair=pair, f=g))
        z = rng.uniform(-4.0, 4.0, n)
        assert np.array_equal(SumFn(f, g).prox_lam(z, lam),
                              S.resolvent(z, lam).x)


def _separable_fn(rng, n):
    """A separable function of full domain: an l1 norm or the support
    function of a box, and in 1-D also any norm, a ball's support
    function or a translated norm."""
    kind = NormTag((NormTag.L1, NormTag.L2, NormTag.LINF)[rng.integers(3)])
    lo = rng.uniform(-2.0, 1.0, n)
    choices = [NormFn(n, float(rng.uniform(0.0, 2.0)), NormTag.L1),
               SupportFn(box(lo, lo + rng.uniform(0.0, 2.0, n)))]
    if n == 1:
        choices += [
            NormFn(1, float(rng.uniform(0.0, 2.0)), kind),
            SupportFn(Ball(center=rng.uniform(-1.0, 1.0, 1),
                           radius=float(rng.uniform(0.0, 2.0)), norm=kind)),
            Translate(NormFn(1), shift=rng.normal(size=1),
                      tilt=rng.normal(size=1), offset=0.5)]
    return choices[rng.integers(len(choices))]


def _box_set(rng, n):
    """A box polytope or an linf ball, and in 1-D also an l2 ball."""
    lo = rng.uniform(-2.0, 0.0, n)
    center = rng.uniform(-1.0, 1.0, n)
    radius = float(rng.uniform(0.0, 2.0))
    choices = [box(lo, lo + rng.uniform(0.0, 2.0, n)),
               Ball(center=center, radius=radius, norm=NormTag.LINF)]
    if n == 1:
        choices.append(Ball(center=center, radius=radius))
    return choices[rng.integers(len(choices))]


class TestBoxFold:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           lam=st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_clip_is_the_converged_douglas_rachford_prox(self, seed, n, lam):
        rng = np.random.default_rng(seed)
        f, g = _separable_fn(rng, n), IndicatorFn(_box_set(rng, n))
        fn = SumFn(f, g) if rng.integers(2) else SumFn(g, f)
        assert fn.folds
        Z = rng.uniform(-4.0, 4.0, (5, n))
        P = fn.prox_lam(Z, lam)
        scale = max(1.0, float(np.abs(Z).max()))
        x, _, ok = sum_resolvent(f.prox_lam, g.prox_lam, Z, lam)
        # Douglas-Rachford can stall where the box edge sits near a kink
        # of f (a box from 2e-5 beside a support function's kink at 0
        # moves its iterate by 2e-5 a step), so the match is on the rows
        # it converged on, and every row must do at least as well as its
        # Douglas-Rachford point clipped into the box
        assert np.abs(P - x)[np.array(ok)].max(initial=0.0) <= 1e-10 * scale

        def objective(s, z):
            return fn.eval(s) + float((s - z) @ (s - z)) / (2.0 * lam)

        for z, p, xr in zip(Z, P, x):
            # feasible, and a row is the point's result bit for bit
            assert g.set_.contains(p, 1e-12 * scale)
            assert np.array_equal(fn.prox_lam(z, lam), p)
            assert objective(p, z) <= (objective(g.set_.project(xr), z)
                                       + 1e-12 * scale * scale)

    def test_the_1d_clip(self):
        # prox of |x| + i_[-1, 1] at z: soft threshold by lam, then clip
        fn = SumFn(ABS, IndicatorFn(interval(-1.0, 1.0)))
        assert fn.folds
        z = np.array([[-5.0], [-1.5], [0.3], [1.8], [3.0]])
        assert np.array_equal(fn.prox_lam(z, 0.5),
                              [[-1.0], [-1.0], [0.0], [1.0], [1.0]])

    def test_sums_that_stay_douglas_rachford(self):
        sq = box(-np.ones(2), np.ones(2))
        for fn in (SumFn(NormFn(2), IndicatorFn(sq)),  # not separable
                   SumFn(NormFn(2, 1.0, NormTag.L1),
                         IndicatorFn(SQUARE_ROTATED))):  # not a box
            assert not fn.folds

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
    def test_separable_sums_no_rule_folds_take_their_pieces(self, lam):
        # two intervals, neither of full domain, meet in [0, 0.5]; |x| +
        # |x| is 2|x|, whose clip to [-1, 1] folds once it does: the prox
        # of the pieces' Separable is the converged Douglas-Rachford one
        abs2 = SumFn(ABS, ABS)
        cases = (
            (IndicatorFn(interval(0.0, 1.0)), IndicatorFn(interval(-1.0, 0.5)),
             lambda z: np.clip(z, 0.0, 0.5)),
            (abs2, IndicatorFn(interval(-1.0, 1.0)),
             lambda z: np.clip(np.sign(z) * np.maximum(np.abs(z) - 2 * lam,
                                                       0.0), -1.0, 1.0)))
        Z = np.linspace(-4.0, 4.0, 17)[:, None]
        x2, _, ok2 = sum_resolvent(ABS.prox_lam, ABS.prox_lam, Z, lam)
        assert all(ok2) and np.abs(abs2.prox_lam(Z, lam) - x2).max() <= 1e-9
        for f, g, truth in cases:
            fn = SumFn(f, g)
            assert fn.folds
            P = fn.prox_lam(Z, lam)
            assert np.abs(P - truth(Z)).max() <= 1e-12
            x, _, ok = sum_resolvent(f.prox_lam, g.prox_lam, Z, lam)
            assert all(ok) and np.abs(P - x).max() <= 1e-9


def _three_fold_rules(smooth):
    """The fold rules as three cases, one per smooth kind, against which
    the one rule of ``_fold_aim`` is checked bit for bit."""
    if isinstance(smooth, Affine):
        return lambda z, lam: (z - lam * smooth.a, lam)
    if isinstance(smooth, HalfSqNorm):
        return lambda z, lam: (z / (1.0 + lam), lam / (1.0 + lam))
    if isinstance(smooth, Quadratic):
        Q = smooth.Q
        if np.allclose(Q, Q[0, 0] * np.eye(Q.shape[0]), atol=1e-14):
            q = float(Q[0, 0])

            def aim(z, lam):
                denom = 1.0 + lam * q
                return (z - lam * smooth.b) / denom, lam / denom

            return aim
    return None


class TestFoldAim:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           lam=st.one_of(st.floats(1e-300, 1e300), st.sampled_from(
               [5e-324, 0.1, 0.3, 1.0, 2.5, 1e8])))
    @settings(max_examples=200, deadline=None)
    def test_one_rule_gives_the_bits_of_three(self, seed, n, lam):
        rng = np.random.default_rng(seed)
        q = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
        b = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, n)
        smooths = [Affine(b), Affine(-0.0 * b), HalfSqNorm(n),
                   Quadratic(q * np.eye(n), b), Quadratic(q * np.eye(n),
                                                          np.zeros(n))]
        z = rng.normal(size=(6, n)) * 10.0 ** rng.integers(-300, 300, (6, n))
        z[0] = -0.0
        for smooth in smooths:
            new, old = fn_mod._fold_aim(smooth), _three_fold_rules(smooth)
            for point in (z, z[1], z[0]):
                # an overflow to inf is compared bit for bit too
                with np.errstate(over="ignore", invalid="ignore"):
                    (zn, ln), (zo, lo) = new(point, lam), old(point, lam)
                assert zn.tobytes() == zo.tobytes()
                assert np.float64(ln).tobytes() == np.float64(lo).tobytes()

    def test_a_quadratic_off_the_identity_has_no_rule(self):
        smooth = Quadratic(np.diag([1.0, 2.0]), np.zeros(2))
        assert fn_mod._fold_aim(smooth) is None
        assert _three_fold_rules(smooth) is None


class TestFenchelYoung:
    @given(x=st.floats(-10, 10), y=st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_inequality_1d(self, x, y):
        for f in (HALF_SQ_1D, ABS, IndicatorFn(interval(-1.0, 1.0))):
            fx = f.eval(np.array([x]))
            if not np.isfinite(fx):
                continue
            fy = f.conjugate_fn().eval(np.array([y]))
            if not np.isfinite(fy):
                continue
            assert fx + fy >= x * y - 1e-9


class TestBiconjugacy:
    def test_closed_form_variants(self):
        rng = np.random.default_rng(3)
        for f in fn_families():
            g = f.conjugate_fn()
            if g is None:
                continue
            h = g.conjugate_fn()
            if h is None:
                continue
            for _ in range(100):
                x = rng.uniform(-1.0, 1.0, size=f.dim)
                fx = f.eval(x)
                hx = h.eval(x)
                if np.isfinite(fx):
                    assert hx == pytest.approx(fx, abs=1e-8)


class TestTranslate:
    def test_eval_identity(self):
        x0 = np.array([1.0, -1.0])
        x0star = np.array([0.5, 0.5])
        g = Translate(SupportFn(SQUARE), shift=x0, tilt=x0star)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=2)
            expected = SupportFn(SQUARE).eval(x + x0) - float(x @ x0star)
            assert g.eval(x) == expected

    def test_prox_consistency(self):
        g = Translate(ABS, shift=np.array([2.0]), tilt=np.array([0.0]))
        # prox of |x + 2| at z: shift, soft-threshold, unshift
        assert g.prox(np.array([0.0]))[0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("shift, tilt", [([], [1.0]), ([0.0, 1.0], [1.0]),
                                             ([1.0], [[1.0, 2.0]])])
    def test_a_vector_of_another_size_is_refused(self, shift, tilt):
        # an empty shift would broadcast x + shift away: |.| at 2 less
        # <2, 1> would read -2, not 0
        with pytest.raises(ValueError, match="expected \\(1,\\)"):
            Translate(ABS, shift=np.array(shift), tilt=np.array(tilt))


class TestConvexityOnSegments:
    def test_midpoint_convexity(self):
        rng = np.random.default_rng(5)
        for f in fn_families():
            for _ in range(40):
                a = rng.uniform(-2, 2, size=f.dim)
                b = rng.uniform(-2, 2, size=f.dim)
                fa, fb = f.eval(a), f.eval(b)
                if not (np.isfinite(fa) and np.isfinite(fb)):
                    continue
                mid = f.eval(0.5 * (a + b))
                assert mid <= 0.5 * (fa + fb) + 1e-10


class TestMinimize:
    def test_quadratic(self):
        f = Quadratic(np.eye(2), np.array([-2.0, 0.0]))
        x, v = minimize(f)
        assert np.allclose(x, np.array([2.0, 0.0]), atol=1e-6)
        assert v == pytest.approx(-2.0, abs=1e-9)

    def test_constrained(self):
        f = SumFn(HalfSqNorm(1), IndicatorFn(interval(1.0, 2.0)))
        x, v = minimize(f)
        assert x[0] == pytest.approx(1.0, abs=1e-6)


class TestStaircase:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           lam=st.floats(0.05, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_prox_is_moreau(self, seed, n, lam):
        # prox_{lam f*}(z) = z - lam prox_{f/lam}(z/lam), the conjugate's
        # staircase against f's closed-form prox, rows against points
        rng = np.random.default_rng(seed)
        f, g = _separable_fn(rng, n), IndicatorFn(_box_set(rng, n))
        fn = SumFn(f, g)
        assert fn.folds and fn.conjugate_fn() is not None
        Z = rng.uniform(-4.0, 4.0, (5, n))
        P = fn.conjugate_fn().prox_lam(Z, lam)
        ref = Z - lam * fn.prox_lam(Z / lam, 1.0 / lam)
        assert np.abs(P - ref).max() <= 1e-9 * (1.0 + np.abs(Z).max())
        for z, p in zip(Z, P):
            assert np.array_equal(fn.conjugate_fn().prox_lam(z, lam), p)

    def test_pieces_of_each_kind(self):
        lo, hi = np.array([-1.0, 0.5]), np.array([2.0, 0.5])
        kinds = [NormFn(2, 3.0, NormTag.L1), SupportFn(box(lo, hi)),
                 IndicatorFn(box(lo, hi)), Affine(np.array([1.0, -2.0]), 4.0),
                 HalfSqNorm(2), Quadratic(np.diag([2.0, 0.0]),
                                          np.array([1.0, 1.0]), 0.5),
                 Translate(NormFn(2, 1.0, NormTag.L1), np.ones(2),
                           np.ones(2), 1.0)]
        rng = np.random.default_rng(0)
        for f in kinds:
            pieces = separable_pieces(f)
            assert len(pieces) == 2
            for x in rng.uniform(-3.0, 3.0, (20, 2)):
                x[1] = 0.5 if isinstance(f, IndicatorFn) else x[1]
                want = f.eval(x)
                got = sum(p.eval(x[i:i + 1]) for i, p in enumerate(pieces))
                assert got == pytest.approx(want, abs=1e-12) or (
                    want == got == np.inf)
        # an l2 norm and a rotated quadratic in 2-D are not separable
        assert separable_pieces(NormFn(2)) is None
        assert separable_pieces(
            Quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))) is None
        # disjoint domains: +inf everywhere
        assert separable_pieces(SumFn(IndicatorFn(interval(0.0, 1.0)),
                                      IndicatorFn(interval(2.0, 3.0)))) is None
