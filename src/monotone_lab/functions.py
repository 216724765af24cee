"""Proper convex lsc functions with the oracles the procedures consume.

Each variant carries: evaluation (extended real), a scaled prox
(Euclidean), an affine minorant f(x) >= -gamma0*||x|| - delta0, and --
whenever the variant admits one -- an exact conjugate as another
ConvexFn.  Conjugates without a closed form fall back to a
proximal-point ascent that reports lower-bound status, so downstream
equality tests degrade to three-valued logic.

``prox_lam`` takes a point (n,) or a stack (m, n): each closed form runs
once over the last axis, bit for bit the point's result in each row; a
sum with no closed-form prox (``SumFn.folds`` false) is resolved, a
point or a whole stack in one run, by ``solvers.sum_resolvent``, the
Douglas-Rachford routine ``SumOp`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .sets import Ball, CompactConvexSet, singleton
from .solvers import project_ball, sum_resolvent
from .spaces import NormTag, vector_norm

INF = float("inf")


@dataclass(frozen=True)
class ConjValue:
    """An extended-real conjugate value with an exactness flag."""

    value: float
    exact: bool = True
    direction: Optional[np.ndarray] = None  # certificate for +inf


class ConvexFn:
    """Base class; subclasses implement the per-variant oracles."""

    dim: int

    # -- required oracles ------------------------------------------------
    def eval(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox_lam(self, z: np.ndarray, lam: float = 1.0) -> np.ndarray:
        """argmin_s f(s) + ||s - z||_2^2 / (2*lam).  Euclidean only.  Of a
        point ``z`` (n,), or of each row of a stack ``z`` (m, n)."""
        return self._prox(np.asarray(z, dtype=float), lam)

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        """The prox over the last axis of ``z``, a point or a stack of
        rows; a row gives the point's result bit for bit."""
        raise NotImplementedError

    def minorant(self) -> tuple[float, float]:
        """(gamma0, delta0) with f(x) >= -gamma0*||x||_2 - delta0."""
        raise NotImplementedError

    def conjugate_fn(self) -> Optional["ConvexFn"]:
        """The Fenchel conjugate as a ConvexFn, if closed-form."""
        return None

    # -- derived ---------------------------------------------------------
    def in_domain(self, x: np.ndarray) -> bool:
        return np.isfinite(self.eval(x))

    def prox(self, z: np.ndarray) -> np.ndarray:
        return self.prox_lam(z, 1.0)

    def conjugate(self, y: np.ndarray, max_iter: int = 4000) -> ConjValue:
        """f*(y) = sup_x [<x,y> - f(x)], exact when a closed form exists."""
        g = self.conjugate_fn()
        if g is not None:
            return ConjValue(g.eval(np.asarray(y, dtype=float)))
        return self._conjugate_numeric(np.asarray(y, dtype=float), max_iter)

    def _conjugate_numeric(self, y: np.ndarray, max_iter: int) -> ConjValue:
        # proximal point on x -> f(x) - <x,y>; the fixed point satisfies
        # y in df(x) and then <x,y> - f(x) equals f*(y) exactly
        t = 1.0
        x = np.zeros(self.dim)
        best = -INF
        prev = None
        for k in range(max_iter):
            x = self.prox_lam(x + t * y, t)
            val = float(x @ y) - self.eval(x)
            best = max(best, val)
            if prev is not None and np.linalg.norm(x - prev) <= 1e-12 * (
                1.0 + np.linalg.norm(x)
            ):
                return ConjValue(best, exact=True)
            prev = x.copy()
            if np.linalg.norm(x) > 1e8:
                d = x / np.linalg.norm(x)
                return ConjValue(INF, exact=True, direction=d)
            if k > 50 and k % 25 == 0:
                t = min(t * 2.0, 1e6)
        return ConjValue(best, exact=False)

    def subdiff_contains(
        self, x: np.ndarray, xstar: np.ndarray, tol: float = 1e-8
    ) -> str:
        """Fenchel-Young equality test; returns 'yes', 'no', or 'unknown'."""
        x = np.asarray(x, dtype=float)
        xstar = np.asarray(xstar, dtype=float)
        fx = self.eval(x)
        if not np.isfinite(fx):
            return "no"
        cv = self.conjugate(xstar)
        lhs = fx + cv.value
        rhs = float(x @ xstar)
        if cv.exact:
            return "yes" if lhs <= rhs + tol else "no"
        # lower bound on f*: can only certify 'no'
        return "no" if lhs > rhs + tol else "unknown"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quadratic(ConvexFn):
    """f(x) = x'Qx/2 + b'x + c with Q symmetric PSD."""

    Q: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        if np.min(np.linalg.eigvalsh(Q)) < -1e-10:
            raise ValueError("Q must be positive semidefinite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.b.size

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.Q @ x + self.b @ x + self.c)

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        A = np.eye(self.dim) + lam * self.Q
        # one right-hand side per solve: a multi-column solve rounds
        # differently from the solve of one point
        return np.linalg.solve(A, (z - lam * self.b)[..., None])[..., 0]

    def minorant(self) -> tuple[float, float]:
        return float(np.linalg.norm(self.b)), max(-self.c, 0.0)

    def conjugate_fn(self) -> Optional[ConvexFn]:
        if np.min(np.linalg.eigvalsh(self.Q)) < 1e-12:
            return None
        Qi = np.linalg.inv(self.Q)
        return Quadratic(
            Qi, -Qi @ self.b, float(0.5 * self.b @ Qi @ self.b - self.c)
        )


@dataclass(frozen=True)
class NormFn(ConvexFn):
    """f(x) = scale * ||x||_kind."""

    dim_: int
    scale: float = 1.0
    kind: NormTag = NormTag.L2

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")

    @property
    def dim(self) -> int:
        return self.dim_

    def eval(self, x: np.ndarray) -> float:
        return self.scale * vector_norm(np.asarray(x, dtype=float), self.kind)

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        # Moreau: z minus projection onto the dual ball of radius lam*scale
        return z - project_ball(z, lam * self.scale, self.kind.dual().value)

    def minorant(self) -> tuple[float, float]:
        return 0.0, 0.0

    def conjugate_fn(self) -> Optional[ConvexFn]:
        ball = Ball(
            side="dual", center=np.zeros(self.dim), radius=self.scale,
            norm=self.kind.dual(),
        )
        return IndicatorFn(ball)


@dataclass(frozen=True)
class SupportFn(ConvexFn):
    """f(x) = support function of a compact convex set (max <x, set>)."""

    set_: CompactConvexSet

    @property
    def dim(self) -> int:
        return self.set_.dim

    def eval(self, x: np.ndarray) -> float:
        return self.set_.support(np.asarray(x, dtype=float))

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        # Moreau: prox of lam*support = z - P_{lam*set}(z)
        return z - lam * self.set_.project(z / lam)

    def minorant(self) -> tuple[float, float]:
        # max<x, K> >= <x, k0> >= -||k0||*||x|| for any k0 in K
        k0 = self.set_.project(np.zeros(self.dim))
        return float(np.linalg.norm(k0)), 0.0

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return IndicatorFn(self.set_)


@dataclass(frozen=True)
class IndicatorFn(ConvexFn):
    """f(x) = 0 on the set, +inf off it."""

    set_: CompactConvexSet
    membership_tol: float = 1e-9

    @property
    def dim(self) -> int:
        return self.set_.dim

    def eval(self, x: np.ndarray) -> float:
        return 0.0 if self.set_.contains(np.asarray(x, float),
                                         self.membership_tol) else INF

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        return self.set_.project(z)

    def minorant(self) -> tuple[float, float]:
        return 0.0, 0.0

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return SupportFn(self.set_)


@dataclass(frozen=True)
class Affine(ConvexFn):
    """f(x) = <a, x> + c."""

    a: np.ndarray
    c: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float).ravel())

    @property
    def dim(self) -> int:
        return self.a.size

    def eval(self, x: np.ndarray) -> float:
        return float(self.a @ np.asarray(x, dtype=float)) + self.c

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        return z - lam * self.a

    def minorant(self) -> tuple[float, float]:
        return float(np.linalg.norm(self.a)), max(-self.c, 0.0)

    def conjugate_fn(self) -> Optional[ConvexFn]:
        # conjugate is the indicator of {a} minus c
        return Translate(IndicatorFn(singleton(self.a, side="dual")),
                         shift=np.zeros(self.dim), tilt=np.zeros(self.dim),
                         offset=-self.c)


@dataclass(frozen=True)
class HalfSqNorm(ConvexFn):
    """f(x) = ||x||_2^2 / 2 (self-conjugate)."""

    dim_: int

    @property
    def dim(self) -> int:
        return self.dim_

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ x)

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        return z / (1.0 + lam)

    def minorant(self) -> tuple[float, float]:
        return 0.0, 0.0

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return HalfSqNorm(self.dim_)


@dataclass(frozen=True)
class Translate(ConvexFn):
    """g(x) = inner(x + shift) - <x, tilt> + offset."""

    inner: ConvexFn
    shift: np.ndarray
    tilt: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shift", np.asarray(self.shift, float).ravel())
        object.__setattr__(self, "tilt", np.asarray(self.tilt, float).ravel())

    @property
    def dim(self) -> int:
        return self.inner.dim

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return self.inner.eval(x + self.shift) - float(x @ self.tilt) + self.offset

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        return self.inner.prox_lam(z + self.shift + lam * self.tilt,
                                   lam) - self.shift

    def minorant(self) -> tuple[float, float]:
        g0, d0 = self.inner.minorant()
        ns = float(np.linalg.norm(self.shift))
        nt = float(np.linalg.norm(self.tilt))
        return g0 + nt, d0 + g0 * ns + max(-self.offset, 0.0)

    def conjugate_fn(self) -> Optional[ConvexFn]:
        istar = self.inner.conjugate_fn()
        if istar is None:
            return None
        off = -float(self.shift @ self.tilt) - self.offset
        return Translate(istar, shift=self.tilt, tilt=self.shift, offset=off)


@dataclass(frozen=True)
class SumFn(ConvexFn):
    """f + g, whose prox rule is chosen once, at construction.  A smooth
    summand (``_fold_aim``) folds into the other summand's prox.  Else
    the indicator of a box B (a box polytope, an linf ball, or any set
    in dimension 1) beside a separable f of full domain (any f of full
    domain in dimension 1, else an l1 norm or the support function of a
    box) clips the prox of f to B: prox(f + i_B)(z) = P_B(prox f(z)), a
    1-D fact applied coordinate by coordinate.  Any other sum runs
    Douglas-Rachford.  ``folds`` is true when the prox is a closed form:
    a rule applies and no summand is a sum that runs Douglas-Rachford.
    The conjugate is numeric-only."""

    f: ConvexFn
    g: ConvexFn
    # the prox (z, lam) -> prox_lam(f + g)(z) by a fold rule, else None
    _fold: Optional[Callable] = field(default=None, init=False, repr=False,
                                      compare=False)
    # whether that prox is a closed form: a fold rule applies and neither
    # summand runs Douglas-Rachford
    folds: bool = field(default=False, init=False, repr=False,
                        compare=False)

    def __post_init__(self) -> None:
        if self.f.dim != self.g.dim:
            raise ValueError("summand dimensions differ")
        fold = _fold_prox(self.f, self.g)
        object.__setattr__(self, "_fold", fold)
        object.__setattr__(self, "folds", fold is not None and all(
            _closed_prox(h) for h in (self.f, self.g)))

    @property
    def dim(self) -> int:
        return self.f.dim

    def eval(self, x: np.ndarray) -> float:
        a = self.f.eval(x)
        if not np.isfinite(a):
            return INF
        b = self.g.eval(x)
        return a + b if np.isfinite(b) else INF

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        if self._fold is None:
            # one Douglas-Rachford run over the point or the whole stack;
            # its convergence flags are dropped
            return sum_resolvent(self.f.prox_lam, self.g.prox_lam, z, lam)[0]
        return self._fold(z, lam)

    def minorant(self) -> tuple[float, float]:
        gf, df = self.f.minorant()
        gg, dg = self.g.minorant()
        return gf + gg, df + dg


def full_domain(f: ConvexFn) -> bool:
    """Whether dom f is the whole space."""
    if isinstance(f, Translate):
        return full_domain(f.inner)
    if isinstance(f, SumFn):
        return full_domain(f.f) and full_domain(f.g)
    return isinstance(f, (Quadratic, NormFn, SupportFn, Affine, HalfSqNorm))


def _fold_prox(f: ConvexFn, g: ConvexFn) -> Optional[Callable]:
    """``SumFn``'s prox of f + g by a fold rule, or None."""
    for smooth, other in ((f, g), (g, f)):
        aim = _fold_aim(smooth)
        if aim is not None:
            return lambda z, lam: other.prox_lam(*aim(z, lam))
    for ind, other in ((g, f), (f, g)):
        if (isinstance(ind, IndicatorFn) and ind.set_._is_box()
                and _separable(other)):
            return lambda z, lam: ind.set_.project(other.prox_lam(z, lam))
    return None


def _closed_prox(f: ConvexFn) -> bool:
    """Whether the prox of f is a closed form: every variant's is but that
    of a ``SumFn`` that does not fold."""
    while isinstance(f, Translate):
        f = f.inner
    return not isinstance(f, SumFn) or f.folds


def _separable(f: ConvexFn) -> bool:
    """Whether f is a sum of 1-D functions of full domain, one per
    coordinate."""
    if f.dim == 1:
        return full_domain(f)
    if isinstance(f, NormFn):
        return f.kind is NormTag.L1
    return isinstance(f, SupportFn) and f.set_._is_box()


def _fold_aim(smooth: ConvexFn) -> Optional[Callable]:
    """The map (z, lam) -> (z', lam') with prox_lam(other + smooth)(z) =
    prox_lam'(other)(z'), when ``smooth`` is affine, half-squared-norm,
    or quadratic with Q a multiple of I."""
    if isinstance(smooth, Affine):
        return lambda z, lam: (z - lam * smooth.a, lam)
    if isinstance(smooth, HalfSqNorm):
        return lambda z, lam: (z / (1.0 + lam), lam / (1.0 + lam))
    if isinstance(smooth, Quadratic):
        Q = smooth.Q
        if np.allclose(Q, Q[0, 0] * np.eye(Q.shape[0]), atol=1e-14):
            q = float(Q[0, 0])

            def aim(z: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
                denom = 1.0 + lam * q
                return (z - lam * smooth.b) / denom, lam / denom

            return aim
    return None


def add_fns(*fns: ConvexFn) -> ConvexFn:
    out = fns[0]
    for f in fns[1:]:
        out = SumFn(out, f)
    return out


def minimize(
    f: ConvexFn, x0: Optional[np.ndarray] = None, max_iter: int = 2000,
    tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Proximal-point minimization of a ConvexFn (Euclidean)."""
    x = np.zeros(f.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    if not f.in_domain(x):
        x = f.prox_lam(x, 1.0)
    t = 1.0
    for k in range(max_iter):
        x_new = f.prox_lam(x, t)
        if np.linalg.norm(x_new - x) <= tol * (1.0 + np.linalg.norm(x)):
            return x_new, f.eval(x_new)
        x = x_new
        if k % 20 == 19:
            t = min(t * 4.0, 1e8)
    return x, f.eval(x)
