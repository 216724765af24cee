"""Compact convex sets: polytopes, norm balls, and capsules.

Each set exposes its support function, a deterministic support argmax,
Euclidean projection, and distances under any of the three norms.
Half-space representations are deliberately absent; everything the
package needs is a vertex list, a ball, or a segment fattened by a ball
(capsule).

A polytope whose vertices include every corner of their bounding box is
that axis-aligned box and projects by a coordinatewise clip; other hulls
use Wolfe's algorithm.  A capsule fattened by an l1 or linf ball is a
polytope and projects as one.  ``project`` and ``support`` take a point
(n,) or a stack (m, n): each closed form (a clip, an l2 or linf ball,
every support function) runs once over the last axis, bit for bit the
point's result in each row; Wolfe hulls, l1 balls and l2 capsules loop
the rows of a projection.  l2 distances are always exact.
l1/linf distances are exact on boxes (linf balls and box-shaped capsules
included) and on every 1-D set; to a non-box set in dimension >= 2 they
remain the upper bound of a projected subgradient descent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .solvers import nearest_hull_point, project_ball, subgradient_descent
from .spaces import (NormTag, each_row, norm_subgradient, row_dots,
                     row_norms, vector_norm)

_LEX_TOL = 1e-12


def _lex_smallest(points: np.ndarray) -> np.ndarray:
    """Lexicographically smallest row of ``points``."""
    order = np.lexsort(points.T[::-1])
    return points[order[0]]


@dataclass(frozen=True)
class CompactConvexSet:
    """Base for the three variants.  ``side`` marks primal vs dual ambient."""

    side: str = "primal"

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

    def dist(self, y: np.ndarray, norm: NormTag = NormTag.L2) -> float:
        """inf over the set of ||y - z||_norm.

        Exact as ||y - p|| at the Euclidean projection p when norm is l2,
        and under l1/linf wherever p is also nearest in that norm: on
        boxes, where the distance is the sum or max of per-coordinate
        interval distances, and on every 1-D set, where all three norms
        are |.|.  Under l1/linf to a non-box set in dimension >= 2, a
        projected subgradient descent from p reports the best upper bound
        found.
        """
        y = self._check(y)
        p0 = self.project(y)
        if norm is NormTag.L2:
            return float(np.linalg.norm(y - p0))
        if self._is_box():
            return vector_norm(y - p0, norm)

        def obj(z: np.ndarray) -> float:
            return vector_norm(y - z, norm)

        def sub(z: np.ndarray) -> np.ndarray:
            return -norm_subgradient(y - z, norm)

        scale = max(1.0, float(np.linalg.norm(y - p0)))
        _, best, _ = subgradient_descent(
            obj, sub, [p0], step_scale=0.3 * scale, max_steps=3000,
            project=self.project,
        )
        return min(best, obj(p0))

    def _is_box(self) -> bool:
        """Whether the set is an axis-aligned box, so that its Euclidean
        projection is nearest in every norm; every 1-D set is one."""
        return self.dim == 1

    def interior_contains(self, y: np.ndarray, tol: float = 1e-9) -> bool:
        """True if ``y`` is in the interior, up to a probe width of ~tol;
        the one-row case of ``interior_mask``."""
        return bool(self.interior_mask(self._check(y)[None, :], tol)[0])

    def interior_mask(self, Y: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """``interior_contains`` of each row of ``Y``, as a bool array.

        A row is interior when it and its 2n axis perturbations by
        delta = 16 max(tol, 1e-9) all lie in the set up to tol, which is
        correct for full-dimensional sets; balls use their closed form.
        """
        P = self._probes(Y, tol)
        return np.array([all(self.contains(p, tol) for p in rows)
                         for rows in P], dtype=bool)

    def _probes(self, Y: np.ndarray, tol: float) -> np.ndarray:
        """(m, 2n+1, n) stack: each row of Y, then y + delta e_i and
        y - delta e_i for i = 0..n-1."""
        Y = self._check_rows(Y)
        delta = 16 * max(tol, 1e-9)
        E = delta * np.eye(self.dim)
        offsets = np.vstack([np.zeros(self.dim),
                             np.hstack([E, -E]).reshape(-1, self.dim)])
        return Y[:, None, :] + offsets

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


@dataclass(frozen=True)
class Polytope(CompactConvexSet):
    """Convex hull of a nonempty finite vertex list.

    When the vertices include every corner of their bounding box [lo, hi]
    (a degenerate side lo_i == hi_i gives one coordinate value, and every
    1-D vertex list qualifies), the hull is that box: it projects by
    ``np.clip(y, lo, hi)`` and its l1/linf distances are exact.  Any other
    hull projects by Wolfe's algorithm (``solvers.nearest_hull_point``).
    """

    vertices: np.ndarray = None  # type: ignore[assignment]
    # (lo, hi) when the hull is the vertices' bounding box, else None
    _box: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        V = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if V.size == 0:
            raise ValueError("polytope needs at least one vertex")
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "_box", _box_bounds(V))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def _support(self, y: np.ndarray) -> np.ndarray:
        # V @ row for each row, the product a point takes
        return np.max((self.vertices @ y[..., None])[..., 0], axis=-1)

    def argmax_support(self, y: np.ndarray) -> np.ndarray:
        y = self._check(y)
        vals = self.vertices @ y
        top = float(np.max(vals))
        scale = max(1.0, float(np.max(np.abs(vals))))
        ties = self.vertices[vals >= top - _LEX_TOL * scale]
        return _lex_smallest(ties).copy()

    def _project(self, y: np.ndarray) -> np.ndarray:
        if self._box is not None:
            return np.clip(y, *self._box)
        return each_row(lambda p: nearest_hull_point(self.vertices, p), y)

    def _is_box(self) -> bool:
        return self._box is not None

    def interior_mask(self, Y: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        if self._box is None:
            return super().interior_mask(Y, tol)
        P = self._probes(Y, tol)
        # contains is dist <= tol, and dist is ||y - clip(y)||_2 on a box
        return np.all(row_norms(P - self._project(P), NormTag.L2) <= tol,
                      axis=1)


def _box_bounds(V: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(lo, hi) if conv(V) is the bounding box of V, else None.

    Every vertex lies in the box, so the hull is the box exactly when V
    holds all of its 2**k corners, k the number of sides with lo < hi.
    A corner is coded by which of those coordinates sit at hi.
    """
    lo, hi = V.min(axis=0), V.max(axis=0)
    free = lo < hi
    k = int(np.count_nonzero(free))
    if 2**k > len(V):
        return None
    at_hi = V[:, free] == hi[free]
    corner = np.all(at_hi | (V[:, free] == lo[free]), axis=1)
    codes = at_hi[corner] @ (1 << np.arange(k))
    return (lo, hi) if np.unique(codes).size == 2**k else None


def interval(lo: float, hi: float, side: str = "primal") -> Polytope:
    """The 1-D polytope [lo, hi]."""
    return Polytope(side=side, vertices=np.array([[float(lo)], [float(hi)]]))


def singleton(point: np.ndarray, side: str = "primal") -> Polytope:
    return Polytope(side=side, vertices=np.atleast_2d(np.asarray(point, float)))


def box(lo: np.ndarray, hi: np.ndarray, side: str = "primal") -> Polytope:
    """Axis-aligned box as an explicit vertex list."""
    lo = np.asarray(lo, float).ravel()
    hi = np.asarray(hi, float).ravel()
    n = lo.size
    corners = []
    for mask in range(2**n):
        v = np.where([(mask >> i) & 1 for i in range(n)], hi, lo)
        corners.append(v)
    return Polytope(side=side, vertices=np.array(corners))


@dataclass(frozen=True)
class Ball(CompactConvexSet):
    """Norm ball {x : ||x - center||_norm <= radius}."""

    center: np.ndarray = None  # type: ignore[assignment]
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

    def dist(self, y: np.ndarray, norm: NormTag = NormTag.L2) -> float:
        y = self._check(y)
        if norm is self.norm:
            return max(0.0, vector_norm(y - self.center, norm) - self.radius)
        return super().dist(y, norm)

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

    a: np.ndarray = None  # type: ignore[assignment]
    b: np.ndarray = None  # type: ignore[assignment]
    radius: float = 0.0
    norm: NormTag = NormTag.L2
    # conv({a, b} + V) where it projects as a polytope, else None
    _hull: Polytope | None = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float).ravel())
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
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
        object.__setattr__(self, "_hull", Polytope(
            side=self.side, vertices=np.vstack([self.a + V, self.b + V])))

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

    def _project_segment(self, y: np.ndarray) -> np.ndarray:
        d = self.b - self.a
        dd = float(d @ d)
        if dd == 0.0:
            return self.a.copy()
        t = float(np.clip((y - self.a) @ d / dd, 0.0, 1.0))
        return self.a + t * d

    def _project(self, y: np.ndarray) -> np.ndarray:
        if self._hull is not None:
            return self._hull._project(y)
        return each_row(self._project_l2, y)

    def _project_l2(self, y: np.ndarray) -> np.ndarray:
        p = self._project_segment(y)
        gap = y - p
        n = np.linalg.norm(gap)
        if n <= self.radius:
            return y.copy()
        return p + gap * (self.radius / n)

    def _is_box(self) -> bool:
        return self._hull._is_box() if self._hull else super()._is_box()

    def contains(self, y: np.ndarray, tol: float = 1e-9) -> bool:
        y = self._check(y)
        p = self._project_segment(y)
        if vector_norm(y - p, self.norm) <= self.radius + tol:
            return True
        return super().contains(y, tol)
