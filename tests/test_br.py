"""Constructive near-minimizer subgradient procedures and the
quasidensity witnesses they build."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotone_lab import (
    BRRequest,
    DualPair,
    GapQuery,
    HalfSqNorm,
    IndicatorFn,
    NormFn,
    NormTag,
    PairedPoint,
    Quadratic,
    Subdifferential,
    SumFn,
    Translate,
    br_corollary,
    br_point,
    gap,
    interval,
    quasidense_witness,
    van_point,
)

HALF_SQ = HalfSqNorm(1)
ABS = NormFn(1)


def arr(*vals):
    return np.array([float(v) for v in vals])


class TestBrPoint:
    def test_half_square_certificates(self):
        res = br_point(BRRequest(HALF_SQ, arr(0.3), 1.0, 0.1))
        assert res.ok
        assert res.slack_value >= -1e-7  # h(s) <= h(u)
        assert res.slack_dist >= -1e-7  # ||s - u|| <= alpha
        assert res.slack_slope >= -1e-7  # ||x*|| <= beta
        assert res.membership != "no"
        # the subgradient identity really holds: x* = s for this h
        assert res.xstar[0] == pytest.approx(res.s[0], abs=1e-6)

    def test_abs_near_kink(self):
        res = br_point(BRRequest(ABS, arr(0.05), 1.0, 0.2))
        assert res.ok
        assert res.s[0] == pytest.approx(0.0, abs=1e-6)
        assert abs(res.xstar[0]) <= 0.2 + 1e-7

    def test_exact_minimizer_input(self):
        res = br_point(BRRequest(HALF_SQ, arr(0.0), 0.5, 0.5))
        assert res.ok
        assert res.s[0] == pytest.approx(0.0, abs=1e-7)
        assert res.xstar[0] == pytest.approx(0.0, abs=1e-6)

    def test_premise_violation_raises(self):
        with pytest.raises(ValueError):
            br_point(BRRequest(HALF_SQ, arr(2.0), 0.1, 0.1))

    def test_off_domain_input_raises(self):
        h = SumFn(HALF_SQ, IndicatorFn(interval(0.0, 1.0)))
        with pytest.raises(ValueError):
            br_point(BRRequest(h, arr(5.0), 1.0, 1.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BRRequest(HALF_SQ, arr(0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            BRRequest(HALF_SQ, arr(0.0), 1.0, -1.0)


QUAD = Quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]), arr(-1.0, 0.5))
# the test families with their infima in closed form
FAMILIES = [
    (HALF_SQ, 0.0),
    (ABS, 0.0),
    (QUAD, float(-0.5 * QUAD.b @ np.linalg.solve(QUAD.Q, QUAD.b))),
    (SumFn(ABS, HALF_SQ), 0.0),
    (Translate(ABS, shift=arr(-1.5), tilt=arr(0.0)), 0.0),
    (SumFn(HALF_SQ, IndicatorFn(interval(1.0, 2.0))), 0.5),
]


class TestBrPremise:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, len(FAMILIES) - 1),
           seed=st.integers(0, 2**32 - 1),
           alpha=st.floats(1e-3, 10.0), margin=st.floats(1.01, 100.0))
    def test_the_premise_gives_every_certificate(self, k, seed, alpha,
                                                 margin):
        # u anywhere in the domain, beta just large enough for the
        # premise h(u) - inf h < alpha*beta
        h, inf = FAMILIES[k]
        u = np.random.default_rng(seed).uniform(-3.0, 3.0, h.dim)
        if k == len(FAMILIES) - 1:
            u = np.clip(u, 1.0, 2.0)
        beta = margin * max(h.eval(u) - inf, 1e-9) / alpha
        res = br_point(BRRequest(h, u, alpha, beta))
        scale = 1e-9 * max(1.0, abs(h.eval(u)), alpha, beta)
        assert min(res.slack_value, res.slack_dist,
                   res.slack_slope) >= -scale
        assert res.membership != "no"


class TestBrCorollary:
    def test_half_square(self):
        res = br_corollary(HALF_SQ, 0.1)
        assert res.ok
        assert res.s[0] == pytest.approx(0.0, abs=1e-6)
        assert res.xstar[0] == pytest.approx(0.0, abs=1e-6)

    def test_shifted_abs(self):
        h = Translate(ABS, shift=arr(-2.0), tilt=arr(0.0))  # |x - 2|
        res = br_corollary(h, 0.5)
        assert res.ok
        assert res.s[0] == pytest.approx(2.0, abs=1e-5)
        assert abs(res.xstar[0]) <= 0.5 + 1e-7

    def test_slope_sequence_is_monotone(self):
        # h = (x - 1)^2/2 + |x|, inf h = 1/2 at 0; shrinking beta = 1/n
        # drives h(s_n) monotonically onto the infimum
        h = SumFn(Translate(HALF_SQ, shift=arr(-1.0), tilt=arr(0.0)), ABS)
        values = []
        for n in range(1, 21):
            res = br_corollary(h, 1.0 / n)
            assert res.ok
            values.append(float(h.eval(res.s)))
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-8
        assert values[-1] == pytest.approx(0.5, abs=1e-6)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            br_corollary(HALF_SQ, 0.0)


class TestVanPoint:
    def test_half_square(self):
        p = van_point(HALF_SQ, 1e-8)
        assert p.x[0] == pytest.approx(0.0, abs=1e-4)
        assert p.xstar[0] == pytest.approx(0.0, abs=1e-4)

    def test_shifted_abs(self):
        # g = |x - 2|: the exact solution of g + ||.||^2/2 is (1, -1)
        g = Translate(ABS, shift=arr(-2.0), tilt=arr(0.0))
        p = van_point(g, 1e-6)
        q = 0.5 * p.x @ p.x + p.x @ p.xstar + 0.5 * p.xstar @ p.xstar
        assert q < 1e-6
        assert p.x[0] == pytest.approx(1.0, abs=1e-2)
        assert p.xstar[0] == pytest.approx(-1.0, abs=1e-2)

    def test_indicator(self):
        g = IndicatorFn(interval(1.0, 2.0))
        p = van_point(g, 1e-6)
        q = 0.5 * p.x @ p.x + p.x @ p.xstar + 0.5 * p.xstar @ p.xstar
        assert q < 1e-6
        assert 1.0 - 1e-6 <= p.x[0] <= 2.0 + 1e-6

    def test_quantity_is_half_square_of_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.normal(size=2)
            b = rng.normal(size=2)
            q = 0.5 * a @ a + a @ b + 0.5 * b @ b
            assert q == pytest.approx(0.5 * float(np.linalg.norm(a + b)) ** 2,
                                      abs=1e-12)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            van_point(HALF_SQ, 0.0)


class TestQuasidenseWitness:
    def test_half_square_probe(self):
        p = quasidense_witness(HALF_SQ, arr(0.0), arr(2.0), 1e-6)
        assert p.x[0] == pytest.approx(1.0, abs=1e-2)
        assert p.xstar[0] == pytest.approx(1.0, abs=1e-2)

    def test_witness_is_subgradient_pair(self):
        rng = np.random.default_rng(3)
        for f in (HALF_SQ, ABS):
            for _ in range(10):
                x, xs = rng.normal(size=2) * 2
                p = quasidense_witness(f, arr(x), arr(xs), 1e-6)
                assert f.subdiff_contains(p.x, p.xstar, tol=1e-4) != "no"

    def test_agrees_with_resolvent_gap(self):
        pair = DualPair(1, NormTag.L2)
        rng = np.random.default_rng(5)
        for f in (HALF_SQ, ABS):
            S = Subdifferential(pair=pair, f=f)
            for _ in range(10):
                x, xs = rng.normal(size=2) * 2
                p = quasidense_witness(f, arr(x), arr(xs), 1e-6)
                # the constructive witness certifies a small objective
                a = p.x - x
                b = p.xstar - xs
                val = 0.5 * a @ a + 0.5 * b @ b + a @ b
                assert val < 1e-6
                # ... which can only exceed the true gap
                assert gap(S, GapQuery(PairedPoint(arr(x), arr(xs)))
                           ).value <= val + 1e-9
