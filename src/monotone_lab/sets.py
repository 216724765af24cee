"""Compact convex sets: polytopes, norm balls, and capsules.

Each set exposes its support function, a deterministic support argmax,
Euclidean projection, and distances under any of the three norms.
Half-space representations are deliberately absent; everything the
package needs is a vertex list, a ball, or a segment fattened by a ball
(capsule).

A polytope whose vertices include every corner of their bounding box is
that axis-aligned box and projects by a coordinatewise clip; other hulls
use Wolfe's algorithm.  A capsule fattened by an l1 or linf ball is a
polytope and projects as one.  ``project``, ``support`` and ``dist``
take a point (n,) or a stack (m, n): each closed form (a clip, an l2 or
linf ball, every support function) runs once over the last axis, bit
for bit the point's result in each row; Wolfe hulls, l1 balls and l2
capsules loop the rows of a projection.  Distances are exact in every
norm: the gap to the Euclidean projection under l2 and on boxes (every
1-D set included), else one LP over a hull's weights (its point held
against the vertices and the projection), a ball's closed form, or a
bracket over a capsule's segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .solvers import linprog, nearest_hull_point, project_ball
from .spaces import NormTag, each_row, row_dots, row_norms, vector_norm

_LEX_TOL = 1e-12
_GOLD = (np.sqrt(5.0) - 1.0) / 2.0


def _lex_smallest(points: np.ndarray) -> np.ndarray:
    """Lexicographically smallest row of ``points``."""
    order = np.lexsort(points.T[::-1])
    return points[order[0]]


@dataclass(frozen=True)
class CompactConvexSet:
    """Base for the three variants."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def support(self, y: np.ndarray) -> float | np.ndarray:
        """sup over the set of <., y>: of a point ``y`` (n,) as a float, or
        of each row of a stack ``y`` (m, n) as an (m,) array, each row
        the point's value bit for bit."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 2:
            return self._support(self._check_rows(y))
        return float(self._support(self._check(y)))

    def _support(self, y: np.ndarray) -> np.ndarray:
        """The support function over the last axis of ``y``, a point or a
        stack of rows; a row gives the point's value bit for bit."""
        raise NotImplementedError

    def argmax_support(self, y: np.ndarray) -> np.ndarray:
        """A deterministic maximizer of <., y> over the set."""
        raise NotImplementedError

    def project(self, y: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the set of a point ``y`` (n,), or of
        each row of a stack ``y`` (m, n)."""
        y = np.asarray(y, dtype=float)
        return self._project(self._check_rows(y) if y.ndim == 2
                             else self._check(y))

    def _project(self, y: np.ndarray) -> np.ndarray:
        """The projection over the last axis of ``y``, a point or a stack
        of rows; a row gives the point's result bit for bit."""
        raise NotImplementedError

    def contains(self, y: np.ndarray, tol: float = 1e-9) -> bool:
        y = self._check(y)
        return self.dist(y, NormTag.L2) <= tol

    def dist(self, y: np.ndarray,
             norm: NormTag = NormTag.L2) -> float | np.ndarray:
        """inf over the set of ||y - z||_norm, of a point ``y`` (n,) as a
        float or of each row of a stack ``y`` (m, n), bit for bit.

        ||y - p|| at the Euclidean projection p under l2 and on boxes,
        where p is nearest in every norm; else the set's exact ``_dist``
        row by row.  A row with a NaN gives NaN, else one with an inf
        +inf, before any solve.
        """
        y = np.asarray(y, dtype=float)
        y = self._check_rows(y) if y.ndim == 2 else self._check(y)
        # the sum is finite only when every entry is; else (or where it
        # overflows) the rows with a NaN or an inf are set aside first
        if math.isfinite(y.sum()):
            d = self._dists(y, norm)
            return d if y.ndim == 2 else float(d)
        Y = np.atleast_2d(y)
        d = np.abs(Y).max(axis=1, initial=0.0)  # NaN or inf if a row is
        ok = np.isfinite(d)
        d[ok] = self._dists(Y[ok], norm)
        return d if y.ndim == 2 else float(d[0])

    def _dists(self, y: np.ndarray, norm: NormTag) -> np.ndarray:
        """``dist`` over the last axis of a finite ``y``, a point or a
        stack of rows."""
        if norm is NormTag.L2 or self._is_box():
            return row_norms(y - self._project(y), norm)
        return np.reshape([self._dist(row, norm) for row in np.atleast_2d(y)],
                          y.shape[:-1])

    def _is_box(self) -> bool:
        """Whether the set is an axis-aligned box, so that its Euclidean
        projection is nearest in every norm; every 1-D set is one."""
        return self.dim == 1

    def interior_contains(self, y: np.ndarray, tol: float = 1e-9) -> bool:
        """True if ``y`` is in the interior, up to a probe width of ~tol;
        the one-row case of ``interior_mask``."""
        return bool(self.interior_mask(self._check(y)[None, :], tol)[0])

    def interior_mask(self, Y: np.ndarray,
                      tol: float | np.ndarray = 1e-9) -> np.ndarray:
        """``interior_contains`` of each row of ``Y``, as a bool array.

        A row is interior when it and its 2n axis perturbations by
        delta = 16 max(tol, 1e-9) all lie in the set up to tol, which is
        correct for full-dimensional sets; balls use their closed form.
        ``tol`` is one float for every row, or an (m,) array with each
        row's own, so that rows held to different tolerances share one
        pass: each row's delta and test are those of its tol, and its
        result is that of the row tested alone.
        """
        P = self._probes(Y, tol)
        d = self.dist(P.reshape(-1, self.dim))
        return (d.reshape(P.shape[:2]) <= tol).all(axis=0)

    def _probes(self, Y: np.ndarray, tol: float | np.ndarray) -> np.ndarray:
        """(2n+1, m, n) stack: the rows of Y, then y + delta e_i and
        y - delta e_i for i = 0..n-1, each row's delta from its tol."""
        Y = self._check_rows(Y)
        delta = 16 * np.reshape(np.maximum(tol, 1e-9), (-1, 1))
        return Y + delta * _axis_offsets(self.dim)[:, None, :]

    def _check(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        if y.shape != (self.dim,):
            raise ValueError(f"point has shape {y.shape}, expected ({self.dim},)")
        return y

    def _check_rows(self, Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.dim:
            raise ValueError(f"points have shape {Y.shape}, expected "
                             f"(m, {self.dim})")
        return Y


@lru_cache
def _axis_offsets(n: int) -> np.ndarray:
    """(2n+1, n) rows 0, e_0, -e_0, ..., e_(n-1), -e_(n-1), read-only."""
    E = np.eye(n)
    out = np.vstack([np.zeros(n), np.hstack([E, -E]).reshape(-1, n)])
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Polytope(CompactConvexSet):
    """Convex hull of a nonempty finite vertex list.

    When the vertices include every corner of their bounding box [lo, hi]
    (a degenerate side lo_i == hi_i gives one coordinate value, and every
    1-D vertex list qualifies), the hull is that box: it projects by
    ``np.clip(y, lo, hi)``.  Any other hull projects by Wolfe's algorithm
    (``solvers.nearest_hull_point``), and its l1/linf distance is one LP
    held against the vertices and the projection.  Which of the two it
    is, is decided the first time a projection or distance asks.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        V = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if V.size == 0:
            raise ValueError("polytope needs at least one vertex")
        object.__setattr__(self, "vertices", V)

    @cached_property
    def _box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(lo, hi) when the hull is the vertices' bounding box, else
        None."""
        return _box_bounds(self.vertices)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def _support(self, y: np.ndarray) -> np.ndarray:
        # V @ row for each row, the product a point takes
        return (self.vertices @ y[..., None])[..., 0].max(axis=-1)

    def argmax_support(self, y: np.ndarray) -> np.ndarray:
        y = self._check(y)
        vals = self.vertices @ y
        top = float(vals.max())
        scale = max(1.0, float(np.abs(vals).max()))
        ties = self.vertices[vals >= top - _LEX_TOL * scale]
        return _lex_smallest(ties).copy()

    def _project(self, y: np.ndarray) -> np.ndarray:
        if self._box is not None:
            return y.clip(*self._box)
        return each_row(lambda p: nearest_hull_point(self.vertices, p), y)

    def _is_box(self) -> bool:
        return self._box is not None

    def _dist(self, y: np.ndarray, norm: NormTag) -> float:
        """The least ||y - p|| over the hull points p: V'w at the LP's
        simplex weights w, clipped and summing to 1 (y - V'w = u - v,
        u, v >= 0, minimising 1'(u + v) under l1; under linf also
        u + v + s = t 1, s >= 0, minimising t), each vertex, and the
        Euclidean projection.  The pivots take vertices nearer each
        other than their tolerance (1e4 eps of the data) for one, so
        where some nearly coincide (a capsule of tiny radius) V'w can
        miss by their spread, and a vertex or the projection is nearer."""
        k, n = self.vertices.shape
        A = np.block([[self.vertices.T, np.eye(n), -np.eye(n)],
                      [np.ones((1, k)), np.zeros((1, 2 * n))]])
        b, c = np.append(y, 1.0), np.r_[np.zeros(k), np.ones(2 * n)]
        if norm is NormTag.LINF:
            A = np.block([[A, np.zeros((n + 1, n + 1))], [np.zeros((n, k)),
                          np.tile(np.eye(n), 3), -np.ones((n, 1))]])
            b, c = np.r_[b, np.zeros(n)], np.r_[np.zeros(k + 3 * n), 1.0]
        lam, _, _ = linprog(c, A, b)
        P = np.vstack([self.vertices, self._project(y)])
        w = np.zeros(k) if lam is None else np.maximum(lam[:k], 0.0)
        if w.sum() > 0.0:  # else unsolved, or y so far out that w has
            # no mass in rounding
            P = np.vstack([P, (w / w.sum()) @ self.vertices])
        return float(np.min(row_norms(y - P, norm)))


def _box_bounds(V: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(lo, hi) if conv(V) is the bounding box of V, else None.

    Every vertex lies in the box, so the hull is the box exactly when V
    holds all of its 2**k corners, k the number of sides with lo < hi.
    For k <= 1 the corners are a least and a largest vertex.  Otherwise
    a corner is coded by which of those coordinates sit at hi, and each
    code found is marked in a table of 2**k.
    """
    lo, hi = V.min(axis=0), V.max(axis=0)
    free = lo < hi
    k = int(np.count_nonzero(free))
    if k <= 1:
        return lo, hi
    if 2**k > len(V):
        return None
    W = V[:, free]
    at_hi = W == hi[free]
    corner = np.all(at_hi | (W == lo[free]), axis=1)
    seen = np.zeros(2**k, dtype=bool)
    seen[at_hi[corner] @ (1 << np.arange(k))] = True
    return (lo, hi) if seen.all() else None


def interval(lo: float, hi: float) -> Polytope:
    """The 1-D polytope [lo, hi]."""
    return Polytope(np.array([[float(lo)], [float(hi)]]))


def singleton(point: np.ndarray) -> Polytope:
    return Polytope(np.atleast_2d(np.asarray(point, float)))


def box(lo: np.ndarray, hi: np.ndarray) -> Polytope:
    """Axis-aligned box as an explicit vertex list."""
    lo = np.asarray(lo, float).ravel()
    hi = np.asarray(hi, float).ravel()
    n = lo.size
    corners = []
    for mask in range(2**n):
        v = np.where([(mask >> i) & 1 for i in range(n)], hi, lo)
        corners.append(v)
    return Polytope(np.array(corners))


@dataclass(frozen=True)
class Ball(CompactConvexSet):
    """Norm ball {x : ||x - center||_norm <= radius}."""

    center: np.ndarray
    radius: float = 0.0
    norm: NormTag = NormTag.L2

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=float).ravel()
        object.__setattr__(self, "center", c)
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def dim(self) -> int:
        return self.center.size

    def _support(self, y: np.ndarray) -> np.ndarray:
        return row_dots(y, self.center) + self.radius * row_norms(
            y, self.norm.dual())

    def argmax_support(self, y: np.ndarray) -> np.ndarray:
        y = self._check(y)
        return self.center + self.radius * _dual_unit(y, self.norm)

    def _project(self, y: np.ndarray) -> np.ndarray:
        return self.center + project_ball(y - self.center, self.radius,
                                          self.norm.value)

    def contains(self, y: np.ndarray, tol: float = 1e-9) -> bool:
        y = self._check(y)
        return vector_norm(y - self.center, self.norm) <= self.radius + tol

    def _dist(self, y: np.ndarray, norm: NormTag) -> float:
        """(||y - c|| - r)+ in the ball's norm; from an l2 ball, under l1
        sum (a_i - lam)+ at ||min(a, lam)||_2 = r, under linf the least t
        with ||(a - t)+||_2 <= r; from an l1 ball, under linf, the least t
        with sum (a_i - t)+ <= r, for a = |y - c|, on its piece of sorted a."""
        a, r = np.sort(np.abs(y - self.center))[::-1], self.radius
        if norm is self.norm:
            return max(0.0, vector_norm(a, norm) - r)
        if vector_norm(a, self.norm) <= r:
            return 0.0
        if norm is NormTag.L1:
            tail = np.append(np.cumsum((a * a)[::-1])[::-1][1:], 0.0)
            j = np.arange(1, a.size + 1)
            k = max(1, np.count_nonzero(j * a * a + tail >= r * r))
            lam = np.sqrt(max(0.0, r * r - tail[k - 1]) / k)
            return float(np.sum(np.maximum(a - lam, 0.0)))
        # at t = a_j: G_j = sum (a_i - t)+ and H_j = sum (a_i - t)+^2
        P = np.maximum(a[:, None] - a, 0.0)
        G, H = P.sum(axis=0), (P * P).sum(axis=0)
        if self.norm is NormTag.L1:
            k = np.count_nonzero(G <= r)
            return max(0.0, float(a[k - 1] - (r - G[k - 1]) / k))
        # t = a_k - s with H_k + 2 s G_k + k s^2 = r^2, s >= 0
        k = np.count_nonzero(H <= r * r)
        q = r * r - H[k - 1]
        s = q / (G[k - 1] + np.sqrt(G[k - 1] ** 2 + k * q)) if q > 0 else 0.0
        return max(0.0, float(a[k - 1] - s))

    def _is_box(self) -> bool:
        return self.dim == 1 or self.norm is NormTag.LINF

    def interior_mask(self, Y: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        Y = self._check_rows(Y)
        return (row_norms(Y - self.center, self.norm) < self.radius - tol) \
            & (self.radius > 0)


def _dual_unit(y: np.ndarray, ball_norm: NormTag) -> np.ndarray:
    """A unit vector u of the ball's norm with <u, y> = ||y||_dual.

    Deterministic tie rule: the lexicographically smallest maximizer.
    For an l2 ball it is unique; for a linf ball a zero coordinate maps
    to -1; for an l1 ball it is -e_i at the first negative max-abs index,
    else +e_i at the last max-abs index (a zero entry counts as +).  A
    direction with a NaN entry gives a NaN vector, as its support is NaN.
    """
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    top = float(np.max(a))  # NaN when an entry is
    if top != top:
        return np.full_like(y, np.nan)
    if top == 0.0:
        return np.zeros_like(y)
    if ball_norm is NormTag.L2:
        # rescale first: squares of tiny entries underflow to subnormals
        # and the norm then loses most of its digits
        z = y / top
        return z / np.linalg.norm(z)
    if ball_norm is NormTag.LINF:
        # support is r*||y||_1, attained at sign pattern; break 0-ties low
        u = np.sign(y)
        u[u == 0] = -1.0
        return u
    # l1 ball: support is r*||y||_inf, attained at +-e_i on a max-abs index
    idx = np.nonzero(a >= top - _LEX_TOL * max(top, 1.0))[0]
    neg = idx[y[idx] < 0]
    u = np.zeros_like(y)
    if neg.size:
        u[neg[0]] = -1.0
    else:
        u[idx[-1]] = 1.0
    return u


@dataclass(frozen=True)
class Capsule(CompactConvexSet):
    """Segment [a, b] fattened by a norm ball: {p + q : p in [a,b],
    ||q||_norm <= radius}.  Exact support function.  Under l1 or linf
    fattening it is the polytope conv({a, b} + V), V the ball's vertices
    (+-radius e_i, or the box corners radius {-1, 1}^n), and projects as
    that polytope, as does a zero-radius l2 capsule that is a point or
    an axis-parallel segment (a box, clipped); any other l2 capsule
    projects in closed form."""

    a: np.ndarray
    b: np.ndarray
    radius: float = 0.0
    norm: NormTag = NormTag.L2
    # conv({a, b} + V) where it projects as a polytope, else None
    _hull: Polytope | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float).ravel())
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        if self.a.shape != self.b.shape:
            raise ValueError(f"capsule ends have shapes {self.a.shape} and "
                             f"{self.b.shape}")
        if self.radius < 0:
            raise ValueError("capsule radius must be nonnegative")
        r = np.full(self.dim, float(self.radius))
        if self.norm is not NormTag.L2:
            V = (np.vstack([np.diag(r), -np.diag(r)])
                 if self.norm is NormTag.L1 else box(-r, r).vertices)
        elif self.radius == 0 and np.count_nonzero(self.a != self.b) <= 1:
            V = np.zeros((1, self.dim))
        else:
            return
        object.__setattr__(self, "_hull",
                           Polytope(np.vstack([self.a + V, self.b + V])))

    @property
    def dim(self) -> int:
        return self.a.size

    def _support(self, y: np.ndarray) -> np.ndarray:
        seg = np.maximum(row_dots(y, self.a), row_dots(y, self.b))
        return seg + self.radius * row_norms(y, self.norm.dual())

    def argmax_support(self, y: np.ndarray) -> np.ndarray:
        y = self._check(y)
        va, vb = float(self.a @ y), float(self.b @ y)
        if abs(va - vb) <= _LEX_TOL * max(1.0, abs(va), abs(vb)):
            p = _lex_smallest(np.vstack([self.a, self.b]))
        else:
            p = self.a if va > vb else self.b
        return p + self.radius * _dual_unit(y, self.norm)

    def _project(self, y: np.ndarray) -> np.ndarray:
        if self._hull is not None:
            return self._hull._project(y)
        return each_row(self._project_l2, y)

    def _project_l2(self, y: np.ndarray) -> np.ndarray:
        d = self.b - self.a
        dd = float(d @ d)
        t = float(np.clip((y - self.a) @ d / dd, 0.0, 1.0)) if dd else 0.0
        p = self.a + t * d
        gap = y - p
        n = np.linalg.norm(gap)
        if n <= self.radius:
            return y.copy()
        return p + gap * (self.radius / n)

    def _is_box(self) -> bool:
        return self._hull._is_box() if self._hull else super()._is_box()

    def _dist(self, y: np.ndarray, norm: NormTag) -> float:
        """The hull's LP; for an l2 capsule, the least ball distance of
        z - theta d (z = y - a, d = b - a; convex in theta in [0, 1]) met
        by a golden-section bracket that stops when its inner points
        meet.  The inner point that survives a step keeps its value, so
        each step evaluates only its new point (both after a tie)."""
        if self._hull is not None:
            return self._hull._dist(y, norm)
        z, d = y - self.a, self.b - self.a
        ball = Ball(center=np.zeros(self.dim), radius=self.radius)

        def phi(t: float) -> float:
            return ball._dist(z - t * d, norm)

        lo, hi, best = 0.0, 1.0, min(phi(0.0), phi(1.0))
        t1, t2 = hi - _GOLD * (hi - lo), lo + _GOLD * (hi - lo)
        f1 = f2 = None
        while lo < t1 < t2 < hi and not np.array_equal(z - t1 * d,
                                                        z - t2 * d):
            f1 = phi(t1) if f1 is None else f1
            f2 = phi(t2) if f2 is None else f2
            best = min(best, f1, f2)
            if f1 < f2:  # on [lo, t2], t1 the upper inner point
                hi, t2, f2, f1 = t2, t1, f1, None
                t1 = hi - _GOLD * (hi - lo)
            elif f2 < f1:  # on [t1, hi], t2 the lower inner point
                lo, t1, f1, f2 = t1, t2, f2, None
                t2 = lo + _GOLD * (hi - lo)
            else:
                lo, hi, f1, f2 = t1, t2, None, None
                t1, t2 = hi - _GOLD * (hi - lo), lo + _GOLD * (hi - lo)
        return best
