"""Proper convex lsc functions with the oracles the procedures consume.

Each variant carries three oracles: evaluation (extended real), a
scaled prox (Euclidean), and -- whenever the variant admits one -- an
exact conjugate as another ConvexFn, ``conjugate_fn``.  f* is read only
there: where it is None (a sum that is not separable, say), nothing
evaluates f*, and membership of df is the resolvent residual instead of
Fenchel-Young.

``prox_lam`` takes a point (n,) or a stack (m, n): each closed form runs
once over the last axis, bit for bit the point's result in each row; a
sum with no closed-form prox (``SumFn.folds`` false) is resolved, a
point or a whole stack in one run, by ``solvers.sum_resolvent``, the
Douglas-Rachford routine ``SumOp`` uses.

``separable_pieces`` decides, in one place, whether f is a sum of 1-D
functions, one per coordinate, and returns them as ``Staircase``s: the
graph of a 1-D subdifferential is a staircase of corners and two end
rays, from which the value, the prox and the conjugate (the staircase
with its coordinates swapped) are closed forms.  A separable ``SumFn``
so has an exact conjugate, a ``Separable`` of the swapped staircases,
and a closed-form prox.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .sets import Ball, CompactConvexSet, singleton
from .solvers import project_ball, sum_resolvent
from .spaces import NormTag, vector_norm

INF = float("inf")
# the tolerance at which an indicator's set admits a point
_MEMBERSHIP_TOL = 1e-9


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

    def conjugate_fn(self) -> Optional["ConvexFn"]:
        """The Fenchel conjugate as a ConvexFn, if closed-form."""
        return None

    # -- derived ---------------------------------------------------------
    def in_domain(self, x: np.ndarray) -> bool:
        return np.isfinite(self.eval(x))

    def prox(self, z: np.ndarray) -> np.ndarray:
        return self.prox_lam(z, 1.0)

    def eval_within(self, x: np.ndarray, tol: float) -> float:
        """f(x), but an indicator (and a ``Separable``) reads a point within
        ``tol`` of its domain as the nearest point there, so that rounding
        just outside the domain does not make f infinite."""
        return self.eval(x)

    def subdiff_contains(
        self, x: np.ndarray, xstar: np.ndarray, tol: float = 1e-8
    ) -> str:
        """Whether x* is in df(x): 'yes' or 'no'.  Fenchel-Young,
        f(x) + f*(x*) <= <x, x*> + tol, where f* is a closed form, and
        where f or f* is an indicator, membership of its set is tested at
        ``tol`` too (``eval_within``).  Else the resolvent residual
        ||s - x||_2 + ||s* - x*||_2 <= tol at s = prox(x + x*),
        s* = x + x* - s."""
        x = np.asarray(x, dtype=float)
        xstar = np.asarray(xstar, dtype=float)
        g = self.conjugate_fn()
        if g is None:
            z = x + xstar
            s = self.prox(z)
            res = float(np.linalg.norm(s - x) + np.linalg.norm(z - s - xstar))
            return "yes" if res <= tol else "no"
        lhs = self.eval_within(x, tol) + g.eval_within(xstar, tol)
        return "yes" if lhs <= float(x @ xstar) + tol else "no"


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
        if Q.shape != (b.size, b.size):
            raise ValueError(f"Q has shape {Q.shape}, expected "
                             f"({b.size}, {b.size}) for b of size {b.size}")
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

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return IndicatorFn(Ball(np.zeros(self.dim), self.scale,
                                self.kind.dual()))


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

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return IndicatorFn(self.set_)


@dataclass(frozen=True)
class IndicatorFn(ConvexFn):
    """f(x) = 0 on the set, +inf off it."""

    set_: CompactConvexSet

    @property
    def dim(self) -> int:
        return self.set_.dim

    def eval(self, x: np.ndarray) -> float:
        return 0.0 if self.set_.contains(np.asarray(x, float),
                                         _MEMBERSHIP_TOL) else INF

    def eval_within(self, x: np.ndarray, tol: float) -> float:
        return 0.0 if self.set_.contains(
            np.asarray(x, float), max(tol, _MEMBERSHIP_TOL)) else INF

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        return self.set_.project(z)

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

    def conjugate_fn(self) -> Optional[ConvexFn]:
        # conjugate is the indicator of {a} minus c
        return Translate(IndicatorFn(singleton(self.a)),
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

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return HalfSqNorm(self.dim_)


@dataclass(frozen=True)
class Translate(ConvexFn):
    """g(x) = inner(x + shift) - <x, tilt> + offset; shift and tilt
    must have the inner function's dimension."""

    inner: ConvexFn
    shift: np.ndarray
    tilt: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        for name in ("shift", "tilt"):
            v = np.asarray(getattr(self, name), float).ravel()
            if v.shape != (self.inner.dim,):
                raise ValueError(f"translate {name} has shape {v.shape}, "
                                 f"expected ({self.inner.dim},)")
            object.__setattr__(self, name, v)

    @property
    def dim(self) -> int:
        return self.inner.dim

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return self.inner.eval(x + self.shift) - float(x @ self.tilt) + self.offset

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        return self.inner.prox_lam(z + self.shift + lam * self.tilt,
                                   lam) - self.shift

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
    in dimension 1) beside a separable f of full domain
    (``separable_pieces``) clips the prox of f to B:
    prox(f + i_B)(z) = P_B(prox f(z)), a 1-D fact applied coordinate by
    coordinate.  Else a separable f + g (``separable_pieces``) takes the
    prox of the ``Separable`` of its pieces.  Any other sum runs
    Douglas-Rachford.  ``folds`` is true when the prox is a closed form:
    a rule applies and no summand is a sum that runs Douglas-Rachford.
    A separable sum has an exact conjugate: the ``Separable`` of its
    pieces' conjugates, each a swapped staircase; any other sum has no
    closed-form conjugate."""

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
        if fold is None and self._pieces is not None:
            fold = Separable(self._pieces)._prox
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

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return self._conjugate

    @cached_property
    def _pieces(self) -> Optional[tuple[Staircase, ...]]:
        """``separable_pieces`` of f + g: the pieces of f and of g added
        coordinate by coordinate, or None."""
        pf, pg = separable_pieces(self.f), separable_pieces(self.g)
        if pf is None or pg is None:
            return None
        out = tuple(_add_staircases(a, b) for a, b in zip(pf, pg))
        return None if any(p is None for p in out) else out

    @cached_property
    def _conjugate(self) -> Optional[ConvexFn]:
        pieces = self._pieces
        return None if pieces is None else Separable(
            tuple(p.conjugate_fn() for p in pieces))


@dataclass(frozen=True)
class Staircase(ConvexFn):
    """A convex function of one variable, given by the graph of its
    subdifferential: a staircase of corners (s_i, s*_i), in order along
    the graph and so non-decreasing in both coordinates, joined by
    segments (horizontal where f is linear, vertical at a kink, slanted
    where f is quadratic), with a ray leaving the first corner along
    ``ray0`` and one leaving the last along ``ray1``: (0, -1) and (0, 1)
    at an end of dom f, else -(a, b) and (a, b) with a > 0 <= b, b/a the
    curvature of f out there ((1, q) for q s^2/2, and (q, 1) for its
    conjugate).  ``value`` is f at the first corner; f
    elsewhere is that plus the integral of s* along the graph.  The prox
    at z is the graph point with s + lam*s* = z, on the segment or ray
    that brackets z; the conjugate is the staircase with the coordinates
    swapped, and value s_0 s*_0 - value at its first corner.  A staircase
    has a handful of corners, so they are plain floats."""

    corners: tuple[tuple[float, float], ...]
    ray0: tuple[float, float] = (-1.0, 0.0)
    ray1: tuple[float, float] = (1.0, 0.0)
    value: float = 0.0
    # the s_i, and f at each corner
    _s: tuple[float, ...] = field(default=(), init=False, repr=False,
                                  compare=False)
    _values: tuple[float, ...] = field(default=(), init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        # a kink of no jump or an interval of no width repeats a corner
        C = []
        for s, t in self.corners:
            c = (float(s), float(t))
            if not C or C[-1] != c:
                C.append(c)
        F = [float(self.value)]
        for (s0, t0), (s1, t1) in zip(C, C[1:]):
            F.append(F[-1] + (s1 - s0) * (t0 + t1) / 2.0)
        object.__setattr__(self, "corners", tuple(C))
        object.__setattr__(self, "_s", tuple(s for s, _ in C))
        object.__setattr__(self, "_values", tuple(F))

    @property
    def dim(self) -> int:
        return 1

    @property
    def lo(self) -> float:
        """The lower end of dom f."""
        return self._s[0] if self.ray0[0] == 0 else -INF

    @property
    def hi(self) -> float:
        """The upper end of dom f."""
        return self._s[-1] if self.ray1[0] == 0 else INF

    def eval(self, x: np.ndarray) -> float:
        return self._at(float(np.asarray(x, dtype=float).ravel()[0]))

    def _onward(self, u: float) -> tuple[int, Optional[tuple]]:
        """(i, None) where u is the s of corner i, the first such, else
        (k, d): u lies past corner k along d, the next segment's
        (ds, ds*) or an end ray."""
        C, S = self.corners, self._s
        if u < S[0]:
            return 0, self.ray0
        if u > S[-1]:
            return len(S) - 1, self.ray1
        i = bisect.bisect_left(S, u)
        if S[i] == u:
            return i, None
        return i - 1, (S[i] - S[i - 1], C[i][1] - C[i - 1][1])

    def _at(self, u: float) -> float:
        """f(u), as the value at the corner before u plus the trapezoid
        of s* from there."""
        if u != u:
            return u
        k, d = self._onward(u)
        if d is None:
            return self._values[k]
        if d[0] == 0:
            return INF
        s0, t0 = self.corners[k]
        tu = t0 + (u - s0) * (d[1] / d[0])
        return self._values[k] + (u - s0) * (t0 + tu) / 2.0

    def _span(self, p: float) -> tuple[float, float, float]:
        """(L, R, m) at p in dom f: the subdifferential [L, R] at p, ends
        infinite at an end of dom f, and a finite m in it."""
        C = self.corners
        k, d = self._onward(p)
        if d is not None:
            m = C[k][1] + (p - C[k][0]) * (d[1] / d[0])
            return m, m, m
        j = bisect.bisect_right(self._s, p)
        L = -INF if k == 0 and self.ray0[0] == 0 else C[k][1]
        R = INF if j == len(C) and self.ray1[0] == 0 else C[j - 1][1]
        return L, R, C[k][1]

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        C = np.array(self.corners if len(self.corners) > 1
                     else self.corners * 2)
        s, t = C[:, 0], C[:, 1]
        h = s + lam * t  # s + lam*s* grows along the graph
        u = z[..., 0]
        i = np.clip(np.searchsorted(h, u, side="right") - 1, 0, len(h) - 2)
        dh = h[i + 1] - h[i]
        frac = np.clip(np.divide(u - h[i], dh, out=np.zeros_like(u),
                                 where=dh > 0), 0.0, 1.0)
        x = s[i] + frac * (s[i + 1] - s[i])
        for k, ray, beyond in ((0, self.ray0, u < h[0]),
                               (-1, self.ray1, u > h[-1])):
            step = (u - h[k]) / (ray[0] + lam * ray[1])
            x = np.where(beyond, s[k] + step * ray[0], x)
        return x[..., None]

    def conjugate_fn(self) -> Optional[ConvexFn]:
        s0, t0 = self.corners[0]
        return Staircase(tuple((t, s) for s, t in self.corners),
                         self.ray0[::-1], self.ray1[::-1],
                         s0 * t0 - self.value)

    def translated(self, shift: float, tilt: float,
                   offset: float = 0.0) -> "Staircase":
        """s -> f(s + shift) - tilt*s + offset."""
        C = tuple((s - shift, t - tilt) for s, t in self.corners)
        return Staircase(C, self.ray0, self.ray1,
                         self.value - tilt * C[0][0] + offset)


def _kink(k: float, a: float, b: float) -> Staircase:
    """s -> a(s - k) left of k, b(s - k) right of it (a <= b)."""
    return Staircase(((k, a), (k, b)))


def _interval(lo: float, hi: float) -> Staircase:
    """The indicator of [lo, hi]."""
    return Staircase(((lo, 0.0), (hi, 0.0)), (0.0, -1.0), (0.0, 1.0))


def _parabola(q: float, b: float, c: float = 0.0) -> Staircase:
    """s -> q s^2/2 + b s + c (q >= 0)."""
    return Staircase(((0.0, b),), (-1.0, -q), (1.0, q), c)


def _add_staircases(A: Staircase, B: Staircase) -> Optional[Staircase]:
    """The staircase of f + g from theirs, or None where dom f and dom g
    do not meet: d(f + g)(p) = df(p) + dg(p) at each corner p of either
    inside the common domain and at its ends, and both are linear in
    between."""
    lo, hi = max(A.lo, B.lo), min(A.hi, B.hi)
    if not lo <= hi:
        return None
    P = sorted({p for p in A._s + B._s if lo <= p <= hi}
               | {e for e in (lo, hi) if abs(e) < INF})
    corners = []
    for p in P:
        La, Ra, ma = A._span(p)
        Lb, Rb, mb = B._span(p)
        ends = [v for v in (La + Lb, Ra + Rb) if abs(v) < INF]
        corners += [(p, v) for v in ends or [ma + mb]]
    q0 = A.ray0[1] / A.ray0[0] + B.ray0[1] / B.ray0[0] if lo == -INF else 0.0
    q1 = A.ray1[1] / A.ray1[0] + B.ray1[1] / B.ray1[0] if hi == INF else 0.0
    return Staircase(tuple(corners),
                     (-1.0, -q0) if lo == -INF else (0.0, -1.0),
                     (1.0, q1) if hi == INF else (0.0, 1.0),
                     A._at(P[0]) + B._at(P[0]))


@dataclass(frozen=True)
class Separable(ConvexFn):
    """f(x) = sum_i f_i(x_i), one ``Staircase`` per coordinate: the form
    of the conjugate of a separable ``SumFn``."""

    pieces: tuple[Staircase, ...]

    @property
    def dim(self) -> int:
        return len(self.pieces)

    def eval(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float).ravel().tolist()
        return sum(p._at(u) for p, u in zip(self.pieces, x))

    def eval_within(self, x: np.ndarray, tol: float) -> float:
        x = np.asarray(x, dtype=float).ravel()
        y = np.clip(x, [p.lo for p in self.pieces],
                    [p.hi for p in self.pieces])
        return self.eval(y) if np.linalg.norm(x - y) <= tol else INF

    def _prox(self, z: np.ndarray, lam: float) -> np.ndarray:
        return np.stack([p._prox(z[..., i:i + 1], lam)[..., 0]
                         for i, p in enumerate(self.pieces)], axis=-1)

    def conjugate_fn(self) -> Optional[ConvexFn]:
        return Separable(tuple(p.conjugate_fn() for p in self.pieces))


def separable_pieces(f: ConvexFn) -> Optional[tuple[Staircase, ...]]:
    """The 1-D functions f_i with f(x) = sum_i f_i(x_i), one staircase per
    coordinate, or None where f is no such sum (or is +inf everywhere).
    They are: a norm in dimension 1 or an l1 norm; the support function
    and the indicator of a box (any set in dimension 1); an affine
    function, the half squared norm and a quadratic with diagonal Q, the
    constant going to the first piece; and translates and sums of
    separable functions."""
    if isinstance(f, Separable):
        return f.pieces
    if isinstance(f, Staircase):
        return (f,)
    if isinstance(f, SumFn):
        return f._pieces
    n = f.dim
    if isinstance(f, Translate):
        inner = separable_pieces(f.inner)
        if inner is None:
            return None
        return tuple(p.translated(d, t, f.offset if i == 0 else 0.0)
                     for i, (p, d, t) in enumerate(zip(inner, f.shift,
                                                        f.tilt)))
    if isinstance(f, NormFn) and (n == 1 or f.kind is NormTag.L1):
        return (_kink(0.0, -f.scale, f.scale),) * n
    if isinstance(f, (SupportFn, IndicatorFn)) and f.set_._is_box():
        E = np.eye(n)
        bounds = zip((-f.set_.support(-E)).tolist(),
                     f.set_.support(E).tolist())
        if isinstance(f, SupportFn):
            return tuple(_kink(0.0, lo, hi) for lo, hi in bounds)
        return tuple(_interval(lo, hi) for lo, hi in bounds)
    if isinstance(f, HalfSqNorm):
        return (_parabola(1.0, 0.0),) * n
    if isinstance(f, Affine):
        q, b, c = np.zeros(n), f.a, f.c
    elif (isinstance(f, Quadratic)
          and not np.any(f.Q - np.diag(np.diag(f.Q)))):
        q, b, c = np.diag(f.Q), f.b, f.c
    else:
        return None
    return tuple(_parabola(qi, bi, c if i == 0 else 0.0)
                 for i, (qi, bi) in enumerate(zip(q.tolist(), b.tolist())))


def full_domain(f: ConvexFn) -> bool:
    """Whether dom f is the whole space."""
    if isinstance(f, Translate):
        return full_domain(f.inner)
    if isinstance(f, SumFn):
        return full_domain(f.f) and full_domain(f.g)
    if isinstance(f, (Staircase, Separable)):
        return all(p.lo == -INF and p.hi == INF
                   for p in separable_pieces(f))
    return isinstance(f, (Quadratic, NormFn, SupportFn, Affine, HalfSqNorm))


def _fold_prox(f: ConvexFn, g: ConvexFn) -> Optional[Callable]:
    """``SumFn``'s prox of f + g by a fold rule, or None."""
    for smooth, other in ((f, g), (g, f)):
        aim = _fold_aim(smooth)
        if aim is not None:
            return lambda z, lam: other.prox_lam(*aim(z, lam))
    for ind, other in ((g, f), (f, g)):
        if (isinstance(ind, IndicatorFn) and ind.set_._is_box()
                and full_domain(other)
                and separable_pieces(other) is not None):
            return lambda z, lam: ind.set_.project(other.prox_lam(z, lam))
    return None


def _closed_prox(f: ConvexFn) -> bool:
    """Whether the prox of f is a closed form: every variant's is but that
    of a ``SumFn`` that does not fold."""
    while isinstance(f, Translate):
        f = f.inner
    return not isinstance(f, SumFn) or f.folds


def _fold_aim(smooth: ConvexFn) -> Optional[Callable]:
    """The map (z, lam) -> (z', lam') with prox_lam(other + smooth)(z) =
    prox_lam'(other)(z'), when ``smooth`` is q|x|^2/2 + <b, x> + c:
    affine (q = 0), half-squared-norm (q = 1, b = 0), or quadratic with
    Q = qI.  Then z' = (z - lam b)/(1 + lam q) and lam' = lam/(1 + lam q),
    whose subtraction of lam 0.0 and division by 1.0 are exact."""
    if isinstance(smooth, Affine):
        q, b = 0.0, smooth.a
    elif isinstance(smooth, HalfSqNorm):
        q, b = 1.0, 0.0
    elif isinstance(smooth, Quadratic) and np.allclose(
            smooth.Q, smooth.Q[0, 0] * np.eye(smooth.Q.shape[0]),
            atol=1e-14):
        q, b = float(smooth.Q[0, 0]), smooth.b
    else:
        return None

    def aim(z: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
        denom = 1.0 + lam * q
        return (z - lam * b) / denom, lam / denom

    return aim


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
        # the l2 norms np.linalg.norm takes, without its wrapper
        step = x_new - x
        if math.sqrt(step.dot(step)) <= tol * (1.0 + math.sqrt(x.dot(x))):
            return x_new, f.eval(x_new)
        x = x_new
        if k % 20 == 19:
            t = min(t * 4.0, 1e8)
    return x, f.eval(x)
