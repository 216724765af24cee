"""Quasidensity gap, the Euclidean resolvent oracle, fuzzy variants."""

import numpy as np
import pytest

from monotone_lab import (
    DualPair,
    FiniteGraph,
    GapQuery,
    HalfSqNorm,
    IndicatorFn,
    NormFn,
    NormTag,
    NormalCone,
    PairedPoint,
    Subdifferential,
    fuzzy_gap_dual,
    fuzzy_gap_primal,
    gap,
    gap_euclidean_oracle,
    interval,
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
        rep = gap(ORIGIN, GapQuery(pp(1.0, 1.0)))
        assert rep.status == "exact"
        assert rep.value == pytest.approx(2.0)

    def test_origin_graph_antidiagonal_probe(self):
        # r((0,0); (1,-1)) = 1/2 + 1/2 - 1 = 0
        rep = gap(ORIGIN, GapQuery(pp(1.0, -1.0)))
        assert rep.value == pytest.approx(0.0)

    def test_abs_subdifferential_probe(self):
        rep = gap(ABS_OP, GapQuery(pp(0.0, 2.0)))
        assert rep.status == "exact"
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert rep.witness.x[0] == pytest.approx(1.0)
        assert rep.witness.xstar[0] == pytest.approx(1.0)

    def test_witness_value_matches_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = pp(rng.normal() * 2, rng.normal() * 2)
            rep = gap(ABS_OP, GapQuery(t))
            assert rep.value == pytest.approx(
                r_objective(ABS_OP, t, rep.witness.x, rep.witness.xstar),
                abs=1e-10)

    def test_gap_is_nonnegative_for_monotone_graphs(self):
        rng = np.random.default_rng(4)
        pair2 = DualPair(2)
        S = Subdifferential(pair=pair2, f=HalfSqNorm(2))
        for _ in range(50):
            t = PairedPoint(rng.normal(size=2) * 3, rng.normal(size=2) * 3)
            assert gap(S, GapQuery(t)).value >= -1e-12

    def test_sampled_fallback_is_labelled_sampled(self):
        # |x| on the l1 pair: no finite graph, no Euclidean resolvent
        # oracle, no linear descent; the bound is a minimum over samples
        S = Subdifferential(pair=DualPair(1, NormTag.L1), f=NormFn(1))
        rep = gap(S, GapQuery(pp(0.0, 2.0)), budget=20, seed=0)
        assert rep.method == "sampled"
        assert rep.status == "upper_bound"


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
                a = gap(S, GapQuery(t)).value
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
                             interval(-3.0, -1.0, side="dual"))
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
            plain = gap(ABS_OP, GapQuery(pp(w, ws))).value
            dual = fuzzy_gap_dual(ABS_OP, np.array([w]),
                                  singleton(np.array([ws]),
                                            side="dual")).value
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
            Wt = interval(lo, lo + abs(rng.normal()), side="dual")
            assert fuzzy_gap_dual(G, w, Wt).value >= -1e-12

    def test_fuzzy_below_plain_on_resolvent_path(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.normal() * 2
            ws = rng.normal() * 2
            plain = gap(ABS_OP, GapQuery(pp(w, ws))).value
            fuzz = fuzzy_gap_dual(
                ABS_OP, np.array([w]),
                interval(ws - 0.5, ws + 0.5, side="dual")).value
            assert fuzz <= plain + 1e-10

    def test_query_rejects_double_fuzz(self):
        with pytest.raises(ValueError):
            GapQuery(pp(0.0, 0.0), dual_fuzz=interval(0, 1, side="dual"),
                     primal_fuzz=interval(0, 1))


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
