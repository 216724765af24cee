"""Monotone multifunction representations S: E =3 E* with graph access.

Set-valued evaluation is never materialized: every quantifier over G(S)
runs over seeded samples plus variant-specific exact enumerations.  The
scaled resolvent J_lam(z) = (I + lam*S)^{-1} z is the one Euclidean
oracle everything else leans on; it returns genuine graph points.

``resolvent(z, lam)`` is its one entry point, over a point or a stack,
as ``project`` and ``prox_lam`` are: a point (n,) gives a
``PairedPoint`` or raises ``ResolventError``, and an (m, n) stack gives
(X, X*, ok), ok marking every row that succeeded and a failed row
holding NaN.  Each closed form (finite-graph lookup, linear solve, prox
of a subdifferential, shift, inverse) is written once over the last
axis and serves a point and a stack alike.  A sum is a closed form
where the math allows: ``add`` folds two linear maps into one, and
df + dg into d(f + g) where the ``SumFn`` prox folds; ``parallel_sum``
of df and dg is the inverse of such a fold of df* + dg*.  Any other sum
is a ``SumOp``, which resolves a point or a whole stack in one
``solvers.sum_resolvent`` (Douglas-Rachford) run, in which a row that
stalls fails alone.  The graph sample is rows too: ``graph_rows`` gives
all points of a finite graph, and a seeded sample of any other graph;
a sum's sample drops the rows that fail.

Graph membership is one oracle, ``residual`` (0 on G(S)), which
``contains`` compares with a tolerance; a subdifferential of f asks
``f.subdiff_contains``, which tests Fenchel-Young where f* is a closed
form and the same residual elsewhere, and so answers only 'yes' or
'no'.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .functions import (ConvexFn, IndicatorFn, SumFn, SupportFn,
                        full_domain)
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

    def resolvent(self, z: np.ndarray, lam: float = 1.0
                  ) -> PairedPoint | tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The graph point (s, s*) with s + lam*s* = z, for a step lam
        that is finite and > 0 with a finite reciprocal (an inverse
        resolves at step 1/lam).  Of a point ``z`` (n,), a ``PairedPoint``,
        raising ``ResolventError`` where it fails; of each row of a stack
        ``z`` (m, n), (X, X*, ok) with ok marking every row that
        succeeded, each such row the point's result bit for bit, and a
        failed row holding NaN."""
        if not (0.0 < lam < np.inf and 1.0 / lam < np.inf):
            raise ValueError("resolvent step lam must be finite and > 0 "
                             f"with a finite reciprocal, got {lam}")
        z = np.asarray(z, dtype=float)
        if z.ndim != 2:
            x, xs, _ = self._resolve(self.pair.check_dim(z, "z"), lam)
            return PairedPoint.of_rows(x, xs)
        z = self.pair.check_rows(z, "z")
        try:
            X, Xs, ok = self._resolve(z, lam)
        except ResolventError:
            return _failed_rows(z)
        return X, Xs, np.full(len(z), ok)

    def _resolve(self, z: np.ndarray, lam: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray | bool]:
        """(x, x*, ok) over the last axis of ``z``, a point or a stack of
        rows: ok marks the rows that succeeded, a failed row holding NaN,
        or is True where every row did (so that the closed forms, which
        Douglas-Rachford calls at each step, build no mask).  Raises
        ``ResolventError`` only when the point, or every row, fails."""
        raise NotImplementedError

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
        fails; a subdifferential asks ``f.subdiff_contains``.
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


@dataclass(frozen=True)
class FiniteGraph(MonotoneOperator):
    """Graph given by an explicit finite point list."""

    points: tuple[PairedPoint, ...] = ()

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("graph must be nonempty")
        object.__setattr__(self, "points", tuple(self.points))
        for p in self.points:
            self.pair.check_dim(p.x, "graph point")

    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points])

    def xstars(self) -> np.ndarray:
        return np.array([p.xstar for p in self.points])

    def _resolve(self, z: np.ndarray, lam: float):
        X, Xs = self.xs(), self.xstars()
        res = X + lam * Xs - z[..., None, :]
        d2 = np.einsum("...j,...j->...", res, res)
        # a point with a NaN entry is never the nearest
        i = np.argmin(np.where(np.isnan(d2), np.inf, d2), axis=-1)
        return X[i], Xs[i], True

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

    Any square M is accepted; ``monotone`` says whether M + M^T is
    positive semidefinite, its smallest eigenvalue at least
    -1e-12 sum |M_ij|, so that callers can keep a non-monotone M off the
    paths that assume monotonicity.  It is computed the first time it is
    read, so a map whose paths never ask pays no eigenvalue solve."""

    M: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        M = np.atleast_2d(np.asarray(self.M, dtype=float))
        if M.shape != (self.pair.dim, self.pair.dim):
            raise ValueError("matrix shape does not match the pair dimension")
        object.__setattr__(self, "M", M)

    @cached_property
    def monotone(self) -> bool:
        # relative to M, whose rounding errors can tip the symmetric part
        # of a skew-dominated map just below 0; sum |M_ij| bounds ||M||_2
        # and, unlike a sum of squares, does not underflow
        M = self.M
        return bool(np.linalg.eigvalsh(M + M.T)[0]
                    >= -1e-12 * np.abs(M).sum())

    def _resolve(self, z: np.ndarray, lam: float):
        A = np.eye(self.pair.dim) + lam * self.M
        try:
            # one right-hand side per solve: a multi-column solve rounds
            # differently from the solve of one point
            s = np.linalg.solve(A, z[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ResolventError(f"singular I + lam*M: {exc}") from exc
        return s, self._apply(s), True

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

    def _resolve(self, z: np.ndarray, lam: float):
        s = self.f.prox_lam(z, lam)
        return s, (z - s) / lam, True

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        scale = 2.0 * max(1.0, _domain_scale(self.f))
        zs = _cloud(self.pair.dim, budget, seed, scale)
        return self.resolvent(zs)[:2]

    def contains(self, x, xstar, tol: float = 1e-7) -> str:
        """``f.subdiff_contains``: Fenchel-Young where f has a closed-form
        conjugate, else the resolvent residual."""
        return self.f.subdiff_contains(self.pair.check_dim(x, "x"),
                                       self.pair.check_dim(xstar, "xstar"),
                                       tol)


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
        object.__setattr__(self, "dx", self.pair.check_dim(self.dx, "dx"))
        object.__setattr__(self, "dxstar",
                           self.pair.check_dim(self.dxstar, "dxstar"))

    def _resolve(self, z: np.ndarray, lam: float):
        x, xs, ok = self.inner._resolve(z + self.dx + lam * self.dxstar, lam)
        return x - self.dx, xs - self.dxstar, ok

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

    def _resolve(self, z: np.ndarray, lam: float):
        try:
            x, res, ok = sum_resolvent(_whole(self.S), _whole(self.T), z, lam)
        except ResolventError:
            if z.ndim == 1:
                raise
            # a summand failed on the stack: resolve z by z
            x, _, ok = _failed_rows(z)
            for i, row in enumerate(z):
                with contextlib.suppress(ResolventError):
                    x[i], ok[i] = self._resolve(row, lam)[0], True
        else:
            # a row fails alone where its run stopped unconverged with a
            # residual above 1e-6 (a NaN residual is not above it); a
            # point's residual is a float, so compare through numpy
            ok = np.asarray(ok) | ~np.greater(res, 1e-6)
            if z.ndim == 1:
                if not ok:
                    raise ResolventError(
                        f"operator DR stalled at residual {res:.2e}")
            elif not ok.all():
                x = np.where(ok[:, None], x, np.nan)
        return x, (z - x) / lam, ok

    def graph_rows(self, budget: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
        scale = 2.0 * max(self.S.sample_radius(8, seed),
                          self.T.sample_radius(8, seed + 1))
        X, Xs, ok = self.resolvent(
            _cloud(self.pair.dim, budget, seed, scale))
        return X[ok], Xs[ok]


def _whole(S: MonotoneOperator):
    """The summand S's resolvent as ``j(v, t)``, x over the last axis of
    ``v``; it raises ``ResolventError`` unless every row succeeds, so
    that a sum whose summand fails on a stack goes z by z."""
    def j(v: np.ndarray, t: float) -> np.ndarray:
        x, _, ok = S._resolve(v, t)
        if ok is not True and not ok.all():
            raise ResolventError("a summand's resolvent failed")
        return x
    return j


@dataclass(frozen=True)
class InverseOp(MonotoneOperator):
    """S^{-1}: the graph of ``inner`` with components swapped, on the
    swapped pair (dim, inner's dual norm).  Build it with ``inverse``."""

    inner: MonotoneOperator = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if (self.pair.dim != self.inner.pair.dim
                or self.pair.primal_norm is not self.inner.pair.dual_norm):
            raise ValueError("an inverse lives on the swapped pair")

    def _resolve(self, z: np.ndarray, lam: float):
        # (s*, s) with s* + lam*s = z is the inner point (s, s*) with
        # s + s*/lam = z/lam (Bauschke-Combettes, ch. 23)
        x, xs, ok = self.inner._resolve(z / lam, 1.0 / lam)
        return xs, x, ok

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
    pair, whose resolvent is then one solve; ``Subdifferential(f + g)``
    for subdifferentials of f and g on one pair where one of f, g has
    full domain and the ``SumFn`` folds, as df + dg = d(f + g) once
    ri dom f meets ri dom g (Rockafellar, Convex Analysis, Thm 23.8);
    else a ``SumOp`` resolved by Douglas-Rachford."""
    if S.pair == T.pair:
        if isinstance(S, Linear) and isinstance(T, Linear):
            return Linear(pair=S.pair, M=S.M + T.M)
        fn = _folded_sum(S, T)
        if fn is not None:
            return Subdifferential(pair=S.pair, f=fn)
    return SumOp(pair=S.pair, S=S, T=T)


def _folded_sum(S: MonotoneOperator, T: MonotoneOperator) -> Optional[SumFn]:
    """f + g for S = df and T = dg where ``add`` folds it, else None."""
    if not (isinstance(S, Subdifferential) and isinstance(T, Subdifferential)
            and (full_domain(S.f) or full_domain(T.f))):
        return None
    fn = SumFn(S.f, T.f)
    return fn if fn.folds else None


def parallel_sum(S: MonotoneOperator, T: MonotoneOperator) -> MonotoneOperator:
    """(S^{-1} + T^{-1})^{-1}, evaluated through resolvents of the
    inverses.  For S = df and T = dg with closed-form conjugates,
    (df)^{-1} = df* (Rockafellar, Cor. 23.5.1), so where ``add`` folds
    df* + dg* on the swapped pair the result is the inverse of that one
    subdifferential."""
    if S.pair == T.pair and all(isinstance(U, Subdifferential)
                                for U in (S, T)):
        conj = [U.f.conjugate_fn() for U in (S, T)]
        if all(h is not None for h in conj):
            pair = DualPair(S.pair.dim, S.pair.dual_norm)
            folded = add(*(Subdifferential(pair=pair, f=h) for h in conj))
            if isinstance(folded, Subdifferential):
                return inverse(folded)
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
