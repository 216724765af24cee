"""Monotone multifunction representations S: E =3 E* with graph access.

Set-valued evaluation is never materialized: every quantifier over G(S)
runs over seeded samples plus variant-specific exact enumerations.  The
scaled resolvent J_lam(z) = (I + lam*S)^{-1} z is the one Euclidean
oracle everything else leans on; it returns genuine graph points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .functions import ConvexFn, IndicatorFn, SupportFn
from .sets import CompactConvexSet
from .solvers import douglas_rachford
from .spaces import DualPair, NormTag, PairedPoint


class ResolventError(RuntimeError):
    """Raised when a resolvent cannot be computed (singular system,
    inner-iteration divergence)."""


@dataclass(frozen=True)
class MonotoneOperator:
    """Base class.  ``pair`` fixes the ambient norms."""

    pair: DualPair

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        """Graph point (s, s*) with s + lam*s* = z (Euclidean oracle)."""
        raise NotImplementedError

    def resolvent(self, z: np.ndarray) -> PairedPoint:
        return self.resolvent_scaled(np.asarray(z, dtype=float), 1.0)

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        """Deterministic seeded list of graph points."""
        raise NotImplementedError

    def sample_radius(self, budget: int = 32, seed: int = 0) -> float:
        pts = self.graph_sample(budget, seed)
        r = 1.0
        for p in pts:
            r = max(r, float(np.max(np.abs(p.x))), float(np.max(np.abs(p.xstar))))
        return r

    def contains(self, x: np.ndarray, xstar: np.ndarray,
                 tol: float = 1e-7) -> str:
        """Membership of (x, x*) in G(S): 'yes' / 'no' / 'unknown'.

        Variant-specific: graph lookup, Fenchel-Young, or resolvent
        residual at z = x + lam*x*.
        """
        x = self.pair.check_dim(x, "x")
        xstar = self.pair.check_dim(xstar, "xstar")
        try:
            pt = self.resolvent(x + xstar)
        except ResolventError:
            return "unknown"
        res = np.linalg.norm(pt.x - x) + np.linalg.norm(pt.xstar - xstar)
        return "yes" if res <= tol else "no"


def _cloud(dim: int, count: int, seed: int, scale: float = 2.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, dim))


@dataclass(frozen=True)
class FiniteGraph(MonotoneOperator):
    """Graph given by an explicit finite point list."""

    points: tuple[PairedPoint, ...] = ()

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("graph must be nonempty")
        object.__setattr__(self, "points", tuple(self.points))

    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points])

    def xstars(self) -> np.ndarray:
        return np.array([p.xstar for p in self.points])

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        z = self.pair.check_dim(z, "z")
        res = self.xs() + lam * self.xstars() - z
        i = int(np.argmin(np.einsum("ij,ij->i", res, res)))
        return self.points[i]

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        return list(self.points)

    def contains(self, x, xstar, tol: float = 1e-7) -> str:
        x = self.pair.check_dim(x, "x")
        xstar = self.pair.check_dim(xstar, "xstar")
        for p in self.points:
            if (np.linalg.norm(p.x - x) + np.linalg.norm(p.xstar - xstar)
                    <= tol):
                return "yes"
        return "no"


@dataclass(frozen=True)
class Linear(MonotoneOperator):
    """Single-valued linear map x -> Mx.

    Any square M is accepted; ``monotone`` records whether M + M^T is
    positive semidefinite, its smallest eigenvalue at least
    -1e-12 sum |M_ij|, so that callers can keep a non-monotone M off the
    paths that assume monotonicity."""

    M: np.ndarray = None  # type: ignore[assignment]
    monotone: bool = field(default=True, init=False, repr=False,
                           compare=False)

    def __post_init__(self) -> None:
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        if M.shape != (self.pair.dim, self.pair.dim):
            raise ValueError("matrix shape does not match the pair dimension")
        object.__setattr__(self, "M", M)
        # relative to M, whose rounding errors can tip the symmetric part
        # of a skew-dominated map just below 0; sum |M_ij| bounds ||M||_2
        # and, unlike a sum of squares, does not underflow
        object.__setattr__(self, "monotone", bool(
            np.linalg.eigvalsh(M + M.T)[0] >= -1e-12 * np.abs(M).sum()))

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        z = self.pair.check_dim(z, "z")
        A = np.eye(self.pair.dim) + lam * self.M
        try:
            s = np.linalg.solve(A, z)
        except np.linalg.LinAlgError as exc:
            raise ResolventError(f"singular I + lam*M: {exc}") from exc
        return PairedPoint(s, self.M @ s)

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        xs = _cloud(self.pair.dim, budget, seed)
        return [PairedPoint(x, self.M @ x) for x in xs]

    def contains(self, x, xstar, tol: float = 1e-7) -> str:
        x = self.pair.check_dim(x, "x")
        xstar = self.pair.check_dim(xstar, "xstar")
        return "yes" if np.linalg.norm(self.M @ x - xstar) <= tol else "no"


def tail_operator(n: int) -> Linear:
    """Finite truncation of the summation-of-tails map on the l1/linf pair:
    (Tx)_i = sum_{k >= i} x_k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    M = np.triu(np.ones((n, n)))
    return Linear(pair=DualPair(n, NormTag.L1), M=M)


@dataclass(frozen=True)
class Subdifferential(MonotoneOperator):
    """S = subdifferential of a proper convex lsc function."""

    f: ConvexFn = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.f.dim != self.pair.dim:
            raise ValueError("function dimension does not match the pair")

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        z = self.pair.check_dim(z, "z")
        s = self.f.prox_lam(z, lam)
        return PairedPoint(s, (z - s) / lam)

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        scale = 2.0 * max(1.0, _domain_scale(self.f))
        zs = _cloud(self.pair.dim, budget, seed, scale)
        return [self.resolvent(z) for z in zs]

    def contains(self, x, xstar, tol: float = 1e-7) -> str:
        x = self.pair.check_dim(x, "x")
        xstar = self.pair.check_dim(xstar, "xstar")
        return self.f.subdiff_contains(x, xstar, tol)


def _domain_scale(f: ConvexFn) -> float:
    p = f.prox_lam(np.zeros(f.dim), 1.0)
    return float(np.max(np.abs(p))) + 1.0


def normal_cone(pair: DualPair, K: CompactConvexSet) -> "NormalCone":
    return NormalCone(pair=pair, f=IndicatorFn(K))


@dataclass(frozen=True)
class NormalCone(Subdifferential):
    """Normal cone multifunction of a compact convex set (subdifferential
    of its indicator); samples include rescaled normal components since
    the cone is unbounded."""

    @property
    def K(self) -> CompactConvexSet:
        return self.f.set_  # type: ignore[attr-defined]

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        base = super().graph_sample(max(budget // 2, 1), seed)
        out: list[PairedPoint] = []
        for p in base:
            out.append(p)
            if np.any(p.xstar):
                for t in (0.0, 2.0, 5.0):
                    out.append(PairedPoint(p.x, t * p.xstar))
        from .sets import Polytope

        if isinstance(self.K, Polytope):
            for v in self.K.vertices:
                out.append(PairedPoint(v, np.zeros(self.pair.dim)))
        return out[: max(budget, len(base))]


@dataclass(frozen=True)
class SupportSubdiff(Subdifferential):
    """Subdifferential of the support function of a dual-space compact
    convex set; full domain, range inside the set."""

    @property
    def Kt(self) -> CompactConvexSet:
        return self.f.set_  # type: ignore[attr-defined]

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        xs = _cloud(self.pair.dim, budget, seed)
        out = [PairedPoint(x, self.Kt.argmax_support(x)) for x in xs]
        from .sets import Polytope

        if isinstance(self.Kt, Polytope):
            for v in self.Kt.vertices:
                out.append(PairedPoint(np.zeros(self.pair.dim), v))
        return out


def support_subdiff(pair: DualPair, Kt: CompactConvexSet) -> SupportSubdiff:
    return SupportSubdiff(pair=pair, f=SupportFn(Kt))


@dataclass(frozen=True)
class Shift(MonotoneOperator):
    """Graph of the inner operator translated by -(dx, dxstar):
    G = G(inner) - (dx, dxstar)."""

    inner: MonotoneOperator = None  # type: ignore[assignment]
    dx: np.ndarray = None  # type: ignore[assignment]
    dxstar: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dx", np.asarray(self.dx, float).ravel())
        object.__setattr__(self, "dxstar",
                           np.asarray(self.dxstar, float).ravel())

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        z = self.pair.check_dim(z, "z")
        p = self.inner.resolvent_scaled(z + self.dx + lam * self.dxstar, lam)
        return PairedPoint(p.x - self.dx, p.xstar - self.dxstar)

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        return [
            PairedPoint(p.x - self.dx, p.xstar - self.dxstar)
            for p in self.inner.graph_sample(budget, seed)
        ]

    def contains(self, x, xstar, tol: float = 1e-7) -> str:
        return self.inner.contains(
            np.asarray(x, float) + self.dx,
            np.asarray(xstar, float) + self.dxstar, tol,
        )


@dataclass(frozen=True)
class SumOp(MonotoneOperator):
    """Pointwise operator sum (S + T)(x) = S(x) + T(x)."""

    S: MonotoneOperator = None  # type: ignore[assignment]
    T: MonotoneOperator = None  # type: ignore[assignment]

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        # Douglas-Rachford on 0 in lam*S(x) + [lam*T(x) + x - z]
        z = self.pair.check_dim(z, "z")
        t = lam

        def prox_a(v: np.ndarray) -> np.ndarray:
            return self.S.resolvent_scaled(v, t).x

        def prox_b(v: np.ndarray) -> np.ndarray:
            mu = t / (1.0 + t / lam)
            return self.T.resolvent_scaled(
                (v + (t / lam) * z) / (1.0 + t / lam), mu
            ).x

        x, res, ok = douglas_rachford(prox_a, prox_b, z, max_iter=6000,
                                      tol=1e-13)
        if not ok and res > 1e-6:
            raise ResolventError(f"operator DR stalled at residual {res:.2e}")
        return PairedPoint(x, (z - x) / lam)

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        scale = 2.0 * max(self.S.sample_radius(8, seed),
                          self.T.sample_radius(8, seed + 1))
        zs = _cloud(self.pair.dim, budget, seed, scale)
        out = []
        for z in zs:
            try:
                out.append(self.resolvent(z))
            except ResolventError:
                continue
        return out


@dataclass(frozen=True)
class InverseOp(MonotoneOperator):
    """S^{-1}: the graph of ``inner`` with components swapped, on the
    swapped pair (dim, inner's dual norm).  Build it with ``inverse``."""

    inner: MonotoneOperator = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if (self.pair.dim != self.inner.pair.dim
                or self.pair.primal_norm is not self.inner.pair.dual_norm):
            raise ValueError("an inverse lives on the swapped pair")

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        # (s*, s) with s* + lam*s = z is the inner point (s, s*) with
        # s + s*/lam = z/lam (Bauschke-Combettes, ch. 23)
        z = self.pair.check_dim(z, "z")
        return self.inner.resolvent_scaled(z / lam, 1.0 / lam).swapped()

    def resolvent(self, z: np.ndarray) -> PairedPoint:
        return self.inner.resolvent(z).swapped()

    def graph_sample(self, budget: int, seed: int) -> list[PairedPoint]:
        return [p.swapped() for p in self.inner.graph_sample(budget, seed)]

    def contains(self, x, xstar, tol: float = 1e-7) -> str:
        return self.inner.contains(xstar, x, tol)


def inverse(S: MonotoneOperator) -> MonotoneOperator:
    """S^{-1} on the swapped pair DualPair(dim, S's dual norm): the inner
    operator of an ``InverseOp``, a ``FiniteGraph`` of the swapped points
    (so its gaps stay exact), or else an ``InverseOp`` around S."""
    if isinstance(S, InverseOp):
        return S.inner
    pair = DualPair(S.pair.dim, S.pair.dual_norm)
    if isinstance(S, FiniteGraph):
        return FiniteGraph(pair=pair,
                           points=tuple(p.swapped() for p in S.points))
    return InverseOp(pair=pair, inner=S)


def parallel_sum(S: MonotoneOperator, T: MonotoneOperator) -> MonotoneOperator:
    """(S^{-1} + T^{-1})^{-1}, evaluated through resolvents of the
    inverses."""
    Si, Ti = inverse(S), inverse(T)
    return inverse(SumOp(pair=Si.pair, S=Si, T=Ti))


@dataclass(frozen=True)
class MonotonicityVerdict:
    ok: bool
    worst_value: float
    witness: Optional[tuple[PairedPoint, PairedPoint]] = None
    label: str = "sampled"


def monotone_check(
    S: MonotoneOperator, budget: int = 50, seed: int = 0,
    tol: float = 1e-10,
) -> MonotonicityVerdict:
    """All-pairs monotonicity test on a seeded graph sample."""
    pts = S.graph_sample(budget, seed)
    X = np.array([p.x for p in pts])
    Y = np.array([p.xstar for p in pts])
    n = len(pts)
    worst = np.inf
    wit = None
    for i in range(n):
        dx = X[i] - X
        dy = Y[i] - Y
        vals = np.einsum("ij,ij->i", dx, dy)
        j = int(np.argmin(vals))
        if vals[j] < worst:
            worst = float(vals[j])
            wit = (pts[i], pts[j])
    ok = worst >= -tol
    return MonotonicityVerdict(ok, worst, None if ok else wit)
