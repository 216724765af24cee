"""Norm pairs, pairing, and the product norm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monotone_lab import (
    DualPair,
    NormTag,
    PairedPoint,
    graph_norm,
    vector_norm,
)

ALL_TAGS = [NormTag.L1, NormTag.L2, NormTag.LINF]


def vec(n, lo=-100.0, hi=100.0):
    return arrays(
        np.float64, (n,),
        elements=st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


class TestNormTag:
    def test_dual_involution(self):
        for t in ALL_TAGS:
            assert t.dual().dual() is t

    def test_dual_pairing_rule(self):
        assert NormTag.L1.dual() is NormTag.LINF
        assert NormTag.LINF.dual() is NormTag.L1
        assert NormTag.L2.dual() is NormTag.L2

    def test_parse(self):
        assert NormTag.parse("l1") is NormTag.L1
        assert NormTag.parse("LINF".lower()) is NormTag.LINF
        assert NormTag.parse(NormTag.L2) is NormTag.L2


class TestPairing:
    def test_dot_product(self):
        p = DualPair(2)
        assert p.pairing(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_zero(self):
        p = DualPair(2)
        assert p.pairing(np.zeros(2), np.array([5.0, -7.0])) == 0.0

    def test_tail_check_input(self):
        # hand arithmetic cross-checked by a brute-force sum
        p = DualPair(2, NormTag.L1)
        x = np.array([1.0, -1.0])
        xstar = np.array([0.0, -1.0])
        assert p.pairing(x, xstar) == 1.0
        assert p.pairing(x, xstar) == sum(a * b for a, b in zip(x, xstar))

    def test_dimension_mismatch(self):
        p = DualPair(2)
        with pytest.raises(ValueError):
            p.pairing(np.ones(3), np.ones(2))


class TestNorm:
    def test_l1(self):
        p = DualPair(2, NormTag.L1)
        assert p.norm(np.array([1.0, -2.0]), "primal") == 3.0

    def test_linf(self):
        p = DualPair(2, NormTag.LINF)
        assert p.norm(np.array([1.0, -2.0]), "primal") == 2.0

    def test_l2(self):
        p = DualPair(2)
        assert p.norm(np.array([3.0, 4.0]), "primal") == 5.0

    def test_dual_side_uses_paired_tag(self):
        p = DualPair(2, NormTag.L1)
        v = np.array([1.0, -2.0])
        assert p.norm(v, "dual") == 2.0  # linf on the dual side

    def test_rejects_dim(self):
        with pytest.raises(ValueError):
            DualPair(0)


class TestGraphNorm:
    def test_euclidean_pythagoras(self):
        p = DualPair(2)
        pt = PairedPoint(np.array([3.0, 0.0]), np.array([0.0, 4.0]))
        assert graph_norm(p, pt) == pytest.approx(5.0)

    def test_zero(self):
        p = DualPair(2)
        assert graph_norm(p, PairedPoint(np.zeros(2), np.zeros(2))) == 0.0

    def test_l1_linf_pair(self):
        p = DualPair(2, NormTag.L1)
        pt = PairedPoint(np.array([1.0, 1.0]), np.array([2.0, -2.0]))
        assert graph_norm(p, pt) == pytest.approx(np.sqrt(8.0))


class TestProperties:
    @given(x=vec(3), xstar=vec(3))
    @settings(max_examples=200, deadline=None)
    def test_hoelder(self, x, xstar):
        for t in ALL_TAGS:
            p = DualPair(3, t)
            lhs = abs(p.pairing(x, xstar))
            rhs = p.norm(x, "primal") * p.norm(xstar, "dual")
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @given(a=vec(4), b=vec(4), c=vec(4))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        for t in ALL_TAGS:
            for u, v in ((a, b), (b, c), (a, c)):
                lhs = vector_norm(u + v, t)
                rhs = vector_norm(u, t) + vector_norm(v, t)
                assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @given(x=vec(3), xstar=vec(3))
    @settings(max_examples=100, deadline=None)
    def test_graph_norm_bounds(self, x, xstar):
        for t in ALL_TAGS:
            p = DualPair(3, t)
            pt = PairedPoint(x, xstar)
            g = graph_norm(p, pt)
            nx = p.norm(x, "primal")
            ns = p.norm(xstar, "dual")
            assert g >= max(nx, ns) - 1e-12 * max(1.0, g)
            assert g <= nx + ns + 1e-12 * max(1.0, g)

    def test_paired_point_shape_validation(self):
        with pytest.raises(ValueError):
            PairedPoint(np.ones(2), np.ones(3))
