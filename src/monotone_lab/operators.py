"""Monotone multifunction representations S: E =3 E* with graph access.

Set-valued evaluation is never materialized: every quantifier over G(S)
runs over seeded samples plus variant-specific exact enumerations.  The
scaled resolvent J_lam(z) = (I + lam*S)^{-1} z is the one Euclidean
oracle everything else leans on; it returns genuine graph points.

The oracle also takes rows: ``resolvent_rows`` resolves an (m, n) stack
Z and returns (X, X*, ok), ok marking the rows before the first failure,
as a loop over the rows that stops there gives.  Each closed form
(finite-graph lookup, linear solve, prox of a subdifferential, shift,
inverse) is written once over the last axis and serves a point and a
stack alike; a sum resolves a point or a whole stack in one
``solvers.sum_resolvent`` run, in which a row that stalls fails alone.
The graph sample is rows too: ``graph_rows`` gives all points of a
finite graph, and a seeded sample of any other graph; a sum's sample
drops only the rows that fail.

Graph membership is one oracle, ``residual`` (0 on G(S)), which
``contains`` compares with a tolerance; a subdifferential's ``contains``
tests Fenchel-Young instead.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .functions import ConvexFn, IndicatorFn, SupportFn
from .sets import CompactConvexSet, Polytope
from .solvers import sum_resolvent
from .spaces import DualPair, NormTag, PairedPoint, first_min, row_norms


class ResolventError(RuntimeError):
    """Raised when a resolvent cannot be computed (singular system,
    inner-iteration divergence)."""


@dataclass(frozen=True)
class MonotoneOperator:
    """Base class.  ``pair`` fixes the ambient norms."""

    pair: DualPair

    def resolvent_scaled(self, z: np.ndarray, lam: float = 1.0) -> PairedPoint:
        """Graph point (s, s*) with s + lam*s* = z (Euclidean oracle)."""
        return PairedPoint.of_rows(*self._resolve(self.pair.check_dim(z, "z"),
                                                  lam))

    def resolvent(self, z: np.ndarray) -> PairedPoint:
        return self.resolvent_scaled(np.asarray(z, dtype=float), 1.0)

    def resolvent_rows(
        self, Z: np.ndarray, lam: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``resolvent_scaled`` of each row of the (m, n) stack ``Z``, as
        (X, X*, ok) with ok marking the rows before the first failure;
        the rows from it on hold NaN, as a loop over the rows that stops
        there gives.  Where ``batched_rows`` it is one ``_resolve_rows``
        call over the stack; otherwise that loop."""
        Z = self.pair.check_rows(Z, "Z")
        if self.batched_rows:
            X, Xs, ok = self._resolve_rows(Z, lam)
            if not ok.all():
                ok = np.logical_and.accumulate(ok)
                X, Xs = _nan_off(ok, X), _nan_off(ok, Xs)
            return X, Xs, ok
        X, Xs, ok = _failed_rows(Z)
        for i, z in enumerate(Z):
            try:
                p = self.resolvent_scaled(z, lam)
            except ResolventError:
                break
            X[i], Xs[i], ok[i] = p.x, p.xstar, True
        return X, Xs, ok

    @property
    def batched_rows(self) -> bool:
        """Whether ``_resolve`` takes a stack of rows."""
        return False

    def _resolve(self, z: np.ndarray,
                 lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(x, x*) over the last axis of ``z``: for one point, and for a
        stack of rows too where ``batched_rows``.  Raises
        ``ResolventError`` when the point, or every row, fails."""
        raise NotImplementedError

    def _resolve_rows(self, Z: np.ndarray, lam: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X, X*, ok) over the stack ``Z`` of a ``batched_rows`` S, ok
        marking every row that succeeded and a failed row holding NaN:
        one ``_resolve`` call, whose rows fail together, unless S can
        tell its rows apart."""
        try:
            X, Xs = self._resolve(Z, lam)
        except ResolventError:
            return _failed_rows(Z)
        return X, Xs, np.ones(len(Z), dtype=bool)

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        """A deterministic seeded sample of graph points (x_i, x*_i), as
        two (m, n) arrays X and X*."""
        raise NotImplementedError

    def sample_radius(self, budget: int = 32, seed: int = 0) -> float:
        """The largest |entry| of the sampled points, at least 1; a
        component with a NaN entry is skipped."""
        top = np.max(np.abs(np.stack(self.graph_rows(budget, seed))),
                     axis=-1)
        return float(np.max(top, initial=1.0, where=~np.isnan(top)))

    def residual(self, x: np.ndarray, xstar: np.ndarray) -> float:
        """||s - x||_2 + ||s* - x*||_2 at the resolvent (s, s*) of x + x*;
        raises ``ResolventError`` when that resolvent fails."""
        x = self.pair.check_dim(x, "x")
        xstar = self.pair.check_dim(xstar, "xstar")
        pt = self.resolvent(x + xstar)
        return float(np.linalg.norm(pt.x - x)
                     + np.linalg.norm(pt.xstar - xstar))

    def contains(self, x: np.ndarray, xstar: np.ndarray,
                 tol: float = 1e-7) -> str:
        """Membership of (x, x*) in G(S): 'yes' / 'no' / 'unknown'.

        ``residual`` at most ``tol``, 'unknown' when the resolvent
        fails; a subdifferential tests Fenchel-Young instead.
        """
        try:
            return "yes" if self.residual(x, xstar) <= tol else "no"
        except ResolventError:
            return "unknown"


def _cloud(dim: int, count: int, seed: int, scale: float = 2.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(count, dim))


def _failed_rows(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X, X*, ok) of a stack whose rows all failed."""
    return (np.full_like(Z, np.nan), np.full_like(Z, np.nan),
            np.zeros(len(Z), dtype=bool))


def _nan_off(ok: np.ndarray, X: np.ndarray) -> np.ndarray:
    """X with NaN in the rows off ``ok``, as a new array: a resolvent's
    rows may be read-only views."""
    return np.where(ok[:, None], X, np.nan)


def _resolvent(S: "MonotoneOperator", z: np.ndarray,
               lam: float) -> tuple[np.ndarray, np.ndarray]:
    """S's resolvent over the last axis of ``z`` as (x, x*), for an S
    whose rows fail together; raises ``ResolventError`` when they do.
    A batched S is called directly, for a point too: ``z`` is already a
    float array of the pair's dimension."""
    if S.batched_rows:
        return S._resolve(z, lam)
    if z.ndim == 1:
        p = S.resolvent_scaled(z, lam)
        return p.x, p.xstar
    X, Xs, ok = S.resolvent_rows(z, lam)
    if not ok.all():
        raise ResolventError("the inner resolvent failed")
    return X, Xs


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

    batched_rows = True

    def _resolve(self, z: np.ndarray, lam: float):
        X, Xs = self.xs(), self.xstars()
        res = X + lam * Xs - z[..., None, :]
        d2 = np.einsum("...j,...j->...", res, res)
        # a point with a NaN entry is never the nearest
        i = np.argmin(np.where(np.isnan(d2), np.inf, d2), axis=-1)
        return X[i], Xs[i]

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        return self.xs(), self.xstars()

    def residual(self, x, xstar) -> float:
        """The smallest residual over the points, NaN skipped."""
        x = self.pair.check_dim(x, "x")
        xstar = self.pair.check_dim(xstar, "xstar")
        res = (row_norms(self.xs() - x, NormTag.L2)
               + row_norms(self.xstars() - xstar, NormTag.L2))
        return float(np.min(res, initial=np.inf, where=~np.isnan(res)))


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

    batched_rows = True

    def _resolve(self, z: np.ndarray, lam: float):
        A = np.eye(self.pair.dim) + lam * self.M
        try:
            # one right-hand side per solve: a multi-column solve rounds
            # differently from the solve of one point
            s = np.linalg.solve(A, z[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ResolventError(f"singular I + lam*M: {exc}") from exc
        return s, self._apply(s)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Mx over the last axis of ``x``, each row as its own product."""
        return (self.M @ x[..., None])[..., 0]

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        xs = _cloud(self.pair.dim, budget, seed)
        return xs, self._apply(xs)

    def residual(self, x, xstar) -> float:
        x = self.pair.check_dim(x, "x")
        xstar = self.pair.check_dim(xstar, "xstar")
        return float(np.linalg.norm(self.M @ x - xstar))


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

    batched_rows = True

    def _resolve(self, z: np.ndarray, lam: float):
        s = self.f.prox_lam(z, lam)
        return s, (z - s) / lam

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        scale = 2.0 * max(1.0, _domain_scale(self.f))
        zs = _cloud(self.pair.dim, budget, seed, scale)
        return self.resolvent_rows(zs)[:2]

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

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        X, Xs = super().graph_rows(max(budget // 2, 1), seed)
        # each point, then its normal rescaled by 0, 2 and 5 where nonzero
        t = np.array([1.0, 0.0, 2.0, 5.0])[:, None]
        keep = np.ones((len(X), 4), dtype=bool)
        keep[:, 1:] = np.any(Xs, axis=1)[:, None]
        keep = keep.ravel()
        X_out = np.repeat(X, 4, axis=0)[keep]
        Xs_out = (t * Xs[:, None, :]).reshape(-1, self.pair.dim)[keep]
        if isinstance(self.K, Polytope):
            X_out = np.vstack([X_out, self.K.vertices])
            Xs_out = np.vstack([Xs_out, np.zeros_like(self.K.vertices)])
        m = max(budget, len(X))
        return X_out[:m], Xs_out[:m]


@dataclass(frozen=True)
class SupportSubdiff(Subdifferential):
    """Subdifferential of the support function of a dual-space compact
    convex set; full domain, range inside the set."""

    @property
    def Kt(self) -> CompactConvexSet:
        return self.f.set_  # type: ignore[attr-defined]

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        X = _cloud(self.pair.dim, budget, seed)
        Xs = np.array([self.Kt.argmax_support(x) for x in X]).reshape(X.shape)
        if isinstance(self.Kt, Polytope):
            X = np.vstack([X, np.zeros_like(self.Kt.vertices)])
            Xs = np.vstack([Xs, self.Kt.vertices])
        return X, Xs


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

    @property
    def batched_rows(self) -> bool:
        return self.inner.batched_rows

    def _resolve(self, z: np.ndarray, lam: float):
        x, xs = _resolvent(self.inner, z + self.dx + lam * self.dxstar, lam)
        return x - self.dx, xs - self.dxstar

    def _resolve_rows(self, Z: np.ndarray, lam: float):
        X, Xs, ok = self.inner._resolve_rows(
            Z + self.dx + lam * self.dxstar, lam)
        return X - self.dx, Xs - self.dxstar, ok

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        X, Xs = self.inner.graph_rows(budget, seed)
        return X - self.dx, Xs - self.dxstar

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

    batched_rows = True

    def _dr(self, z: np.ndarray, lam: float):
        """``sum_resolvent`` of the summands at ``z``, a point or a stack;
        a summand that fails raises ``ResolventError``."""
        return sum_resolvent(lambda v, t: _resolvent(self.S, v, t)[0],
                             lambda v, t: _resolvent(self.T, v, t)[0], z, lam)

    def _resolve(self, z: np.ndarray, lam: float):
        x, res, ok = self._dr(z, lam)
        stalled = np.flatnonzero(_stalled(res, ok))
        if stalled.size:
            raise ResolventError("operator DR stalled at residual "
                                 f"{np.ravel(res)[stalled[0]]:.2e}")
        return x, (z - x) / lam

    def _resolve_rows(self, Z: np.ndarray, lam: float):
        # a stalled row fails alone
        try:
            X, res, ok = self._dr(Z, lam)
            ok = ~_stalled(res, ok)
        except ResolventError:
            # a summand failed on the stack: resolve z by z
            X, _, ok = _failed_rows(Z)
            for i, z in enumerate(Z):
                with contextlib.suppress(ResolventError):
                    X[i], ok[i] = self.resolvent_scaled(z, lam).x, True
        X = _nan_off(ok, X)
        return X, (Z - X) / lam, ok

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        # unlike resolvent_rows, which ends at the first failed row, a
        # failed row is skipped
        scale = 2.0 * max(self.S.sample_radius(8, seed),
                          self.T.sample_radius(8, seed + 1))
        X, Xs, ok = self._resolve_rows(
            _cloud(self.pair.dim, budget, seed, scale), 1.0)
        return X[ok], Xs[ok]


def _stalled(res, ok) -> np.ndarray:
    """The Douglas-Rachford runs a sum rejects: unconverged with a
    residual above 1e-6 (a NaN residual is not above it)."""
    return ~np.asarray(ok) & (res > 1e-6)


@dataclass(frozen=True)
class InverseOp(MonotoneOperator):
    """S^{-1}: the graph of ``inner`` with components swapped, on the
    swapped pair (dim, inner's dual norm).  Build it with ``inverse``."""

    inner: MonotoneOperator = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if (self.pair.dim != self.inner.pair.dim
                or self.pair.primal_norm is not self.inner.pair.dual_norm):
            raise ValueError("an inverse lives on the swapped pair")

    @property
    def batched_rows(self) -> bool:
        return self.inner.batched_rows

    def _resolve(self, z: np.ndarray, lam: float):
        # (s*, s) with s* + lam*s = z is the inner point (s, s*) with
        # s + s*/lam = z/lam (Bauschke-Combettes, ch. 23)
        x, xs = _resolvent(self.inner, z / lam, 1.0 / lam)
        return xs, x

    def _resolve_rows(self, Z: np.ndarray, lam: float):
        X, Xs, ok = self.inner._resolve_rows(Z / lam, 1.0 / lam)
        return Xs, X, ok

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        X, Xs = self.inner.graph_rows(budget, seed)
        return Xs, X

    def residual(self, x, xstar) -> float:
        return self.inner.residual(xstar, x)

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


def add(S: MonotoneOperator, T: MonotoneOperator) -> MonotoneOperator:
    """S + T on S's pair: ``Linear(M1 + M2)`` for two linear maps on one
    pair, whose resolvent is then one solve, else a ``SumOp`` resolved
    by Douglas-Rachford."""
    if isinstance(S, Linear) and isinstance(T, Linear) and S.pair == T.pair:
        return Linear(pair=S.pair, M=S.M + T.M)
    return SumOp(pair=S.pair, S=S, T=T)


def parallel_sum(S: MonotoneOperator, T: MonotoneOperator) -> MonotoneOperator:
    """(S^{-1} + T^{-1})^{-1}, evaluated through resolvents of the
    inverses."""
    return inverse(add(inverse(S), inverse(T)))


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
    """All-pairs monotonicity test on a seeded graph sample; a pair with
    a NaN value is skipped."""
    X, Y = S.graph_rows(budget, seed)
    worst = np.inf
    wit = None
    for i in range(len(X)):
        dx = X[i] - X
        dy = Y[i] - Y
        vals = np.einsum("ij,ij->i", dx, dy)
        j = first_min(vals)
        if j is not None and vals[j] < worst:
            worst = float(vals[j])
            wit = (PairedPoint.of_rows(X[i], Y[i]),
                   PairedPoint.of_rows(X[j], Y[j]))
    ok = worst >= -tol
    return MonotonicityVerdict(ok, worst, None if ok else wit)
