"""The Fitzpatrick function of a monotone operator, its conjugate, the
graph-sup companion theta, and extension membership.

phi(x, x*) = sup over (s,s*) in G(S) of <s,x*> + <x,s*> - <s,s*>.
theta(w*, w**) is the same sup with the probe roles swapped; in finite
dimensions (E** identified with E, the hat map with the identity) the
two are related by theta(w*, w**) = phi(w**, w*), and every report here
is stated under that identification.

phi, and so theta, is exact by calculus on finite graphs, linear maps,
normal cones (phi = sigma_C(x*) on C, +inf off C by more than
rounding, with a graph ray as the certificate), subdifferentials of
support functions and norms (the inverses of normal cones),
subdifferentials of separable functions (``functions.separable_pieces``:
folded sums among them), and on shifts and inverses of these; a
translated function's subdifferential is a shift, and so is that of a
quadratic s'Qs/2 + b's + c, the linear map Q shifted by (0, -b).  For
a separable f, dF is a product of 1-D staircases, so phi is the sum
over coordinates of a maximum over each staircase's corners and
slanted segments, or +inf where an end ray's sign test fails.  Any
other operator gets a sampled lower bound.  phi* of a finite graph is a
linear program, solved by Lemke's pivots and exact only where its
duality certificate closes; +inf comes with a separating direction
checked by evaluation.  phi* of df with a closed-form f* is bounded
below by f(y**) + f*(y*), and equals the pairing on the graph.

Extension membership tests theta(y*, y**) <= <y*, y**> + tol.  Sampled
sups only bound from below, so verdicts are three-valued: "out" needs a
lower bound on theta violating the inequality (a sampled theta, which
includes the resolvent point at y** + y* and so carries the resolvent
bound <y*, y**> + ||s - y**||_2^2), "in" needs an upper bound meeting it
(an exact theta, graph membership, or the closed-form conjugate chain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .functions import (IndicatorFn, Quadratic, Staircase, Translate,
                        separable_pieces)
from .operators import (
    FiniteGraph,
    InverseOp,
    Linear,
    MonotoneOperator,
    ResolventError,
    Shift,
    Subdifferential,
)
from .sets import CompactConvexSet
from .solvers import linprog, nearest_hull_point
from .spaces import PairedPoint, first_min, row_dots

INF = float("inf")
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitzEvaluation:
    """An extended-real sup/inf value with its exactness status."""

    value: float
    status: str  # "exact" or "lower_bound"
    witness: Optional[PairedPoint] = None
    # certificate for +inf: for phi, the graph ray witness + t * direction,
    # t >= 0, along which the pieces grow without bound; for phi*, the
    # ray t * direction in (x, x*) along which <(y*, y**), .> - phi grows
    # without bound
    direction: Optional[PairedPoint] = None


def _piece_value(s: np.ndarray, sstar: np.ndarray, x: np.ndarray,
                 xstar: np.ndarray) -> np.ndarray:
    """<s, x*> + <x, s*> - <s, s*> over the last axis of (s, s*): for one
    graph point or for each row of a stack."""
    return row_dots(s, xstar) + row_dots(sstar, x) - row_dots(s, sstar)


def phi(
    S: MonotoneOperator,
    x: np.ndarray,
    xstar: np.ndarray,
    budget: int = 200,
    seed: int = 0,
) -> FitzEvaluation:
    """Fitzpatrick function value at (x, x*).

    Exact wherever ``_phi_exact`` has a calculus rule for S; otherwise a
    sampled lower bound that always includes the resolvent point at
    z = x + x*, which pins phi >= <x, x*> constructively.  NaN and -inf
    pieces are skipped.
    """
    x = S.pair.check_dim(x, "x")
    xstar = S.pair.check_dim(xstar, "xstar")
    ev = _phi_exact(S, x, xstar, np.abs(x), np.abs(xstar))
    if ev is not None:
        return ev

    X, Xs = S.graph_rows(budget, seed)
    try:
        p = S.resolvent(x + xstar)
        X, Xs = np.vstack([X, p.x]), np.vstack([Xs, p.xstar])
    except ResolventError:
        pass
    vals = _piece_value(X, Xs, x, xstar)
    i = first_min(-vals)
    if i is None:
        return FitzEvaluation(-INF, "lower_bound")
    wit = PairedPoint.of_rows(X[i], Xs[i])
    # local refinement around the best candidate through the resolvent
    best, wit = _ascend_resolvent(S, x, xstar, wit, float(vals[i]), seed)
    return FitzEvaluation(best, "lower_bound", wit)


def _phi_exact(S: MonotoneOperator, x: np.ndarray, xstar: np.ndarray,
               ax: np.ndarray, axstar: np.ndarray) -> Optional[FitzEvaluation]:
    """phi of S at (x, x*) by one calculus rule per fact, or None where S
    has none.  (ax, ax*) are entrywise sizes that (x, x*) is known to a
    few ulps of: |x|, |x*| for the caller's point, plus |d|, |d*| for
    each shift by (d, d*) that moved it here.  The rules:

    - a finite graph: the largest piece over all its points (NaN
      skipped; with none left, a -inf lower bound);
    - a linear map: a concave quadratic maximised in closed form;
    - the normal cone of C (any subdifferential of an indicator):
      ``_phi_normal_cone``;
    - a subdifferential of f with f* the indicator of K (support
      functions and norms): d sigma_K is the inverse of N_K, so phi is
      the normal cone's at the swapped point;
    - d(inner(. + shift) - <., tilt> + c): the shift of d inner by
      (shift, tilt);
    - a subdifferential of a separable f: ``_phi_separable``;
    - d(s'Qs/2 + b's + c) with Q not diagonal: the linear map Q shifted
      by (0, -b);
    - S^-1: phi_{S^-1}(x, x*) = phi_S(x*, x);
    - a shift S - (d, d*): phi_S(x + d, x* + d*) - <x + d, x* + d*>
      + <x, x*>.

    A shift or inverse has the rule of its inner operator, or none.
    """
    if isinstance(S, Linear):
        return _phi_linear(S, x, xstar)
    if isinstance(S, FiniteGraph):
        X, Xs = S.xs(), S.xstars()
        vals = _piece_value(X, Xs, x, xstar)
        i = first_min(-vals)
        if i is None:
            return FitzEvaluation(-INF, "lower_bound")
        return FitzEvaluation(float(vals[i]), "exact",
                              PairedPoint.of_rows(X[i], Xs[i]))
    if isinstance(S, Subdifferential):
        f = S.f
        if isinstance(f, IndicatorFn):
            return _phi_normal_cone(f.set_, x, xstar, ax)
        conj = f.conjugate_fn()
        if isinstance(conj, IndicatorFn):
            return _swapped(_phi_normal_cone(conj.set_, xstar, x, axstar))
        if isinstance(f, Translate):
            return _phi_exact(
                Shift(pair=S.pair, inner=Subdifferential(pair=S.pair,
                                                         f=f.inner),
                      dx=f.shift, dxstar=f.tilt), x, xstar, ax, axstar)
        pieces = separable_pieces(f)
        if pieces is not None:
            return _phi_separable(pieces, x, xstar, ax, axstar)
        if isinstance(f, Quadratic):
            # d f is s -> Qs + b, the graph of Q less (0, -b)
            return _phi_exact(
                Shift(pair=S.pair, inner=Linear(pair=S.pair, M=f.Q),
                      dx=np.zeros_like(x), dxstar=-f.b), x, xstar, ax, axstar)
        return None
    if isinstance(S, InverseOp):
        ev = _phi_exact(S.inner, xstar, x, axstar, ax)
        return None if ev is None else _swapped(ev)
    if isinstance(S, Shift):
        u, ustar = x + S.dx, xstar + S.dxstar
        ev = _phi_exact(S.inner, u, ustar, ax + np.abs(S.dx),
                        axstar + np.abs(S.dxstar))
        if ev is None:
            return None
        wit = ev.witness
        if wit is not None:
            wit = PairedPoint.of_rows(wit.x - S.dx, wit.xstar - S.dxstar)
        return replace(ev, value=ev.value - float(u @ ustar)
                       + float(x @ xstar), witness=wit)
    return None


def _phi_normal_cone(C: CompactConvexSet, x: np.ndarray, xstar: np.ndarray,
                     ax: np.ndarray) -> FitzEvaluation:
    """phi of the normal cone of C at (x, x*): sigma_C(x*) on C and +inf
    off it (Bauschke, McLaren & Sendov, J. Convex Anal. 13, 2006).

    With d = x - P_C(x), the graph points (s, t d), s a maximiser of
    <., d> over C, have pieces <s, x*> + t (<d, x> - sigma_C(d)), so
    <d, x> > sigma_C(d) certifies +inf, with (s, 0) as witness and (0, d)
    as ray.  Only the support value decides, since argmax_support may
    pick a near tie.  For x in C the excess is <= 0 whatever d the
    projection returns, so a positive computed excess must beat its
    rounding: a few ulps of |d| against ax >= |x| and against the extent
    of C, which bounds every term of sigma_C(d), for the rounding in the
    two sums, in x (a shift moves the caller's point by rounding at the
    scale of the shift, which ax includes) and in the difference.
    Otherwise the pieces (s, 0), s in C, reach sigma_C(x*), which is
    exact when C contains x (every other piece adds <x - s, s*> <= 0
    there) and a lower bound when rounding leaves that undecided.
    """
    d = x - C.project(x)
    excess = float(d @ x) - C.support(d)
    if excess > 0.0 and excess > 4 * (x.size + 2) * _EPS * (
            float(np.abs(d) @ ax)
            + _extent(C) * float(np.abs(d).sum())):
        s = C.argmax_support(d)
        return FitzEvaluation(INF, "exact", PairedPoint(s, np.zeros(s.shape)),
                              direction=PairedPoint(np.zeros(d.shape), d))
    wit = PairedPoint(C.argmax_support(xstar), np.zeros(x.shape))
    return FitzEvaluation(C.support(xstar),
                          "exact" if C.contains(x, 0.0) else "lower_bound",
                          wit)


def _phi_separable(pieces: tuple[Staircase, ...], x: np.ndarray,
                   xstar: np.ndarray, ax: np.ndarray,
                   axstar: np.ndarray) -> Optional[FitzEvaluation]:
    """phi of df = dF_1 x ... x dF_n, the staircases ``pieces`` of a
    separable f, at (x, x*): phi splits over a product, so it is the sum
    of each staircase's phi (``_phi_staircase``) at (x_i, x*_i).  The
    witness takes each coordinate's best point; +inf takes the first
    coordinate whose ray test fails, with that ray, embedded in its
    coordinate, as the direction.  None for a non-finite point or
    staircase (the sampled path then runs)."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xstar)) and all(
            math.isfinite(v) for p in pieces for c in p.corners for v in c)):
        return None
    parts = [_phi_staircase(p, *a) for p, a in zip(pieces, zip(
        x.tolist(), xstar.tolist(), ax.tolist(), axstar.tolist()))]
    wit = PairedPoint(*zip(*(pt for _, _, pt, _ in parts)))
    for i, (_, _, _, ray) in enumerate(parts):
        if ray is not None:
            D = np.zeros((len(parts), 2))
            D[i] = ray
            return FitzEvaluation(INF, "exact", wit,
                                  direction=PairedPoint(D[:, 0], D[:, 1]))
    exact = all(ok for _, ok, _, _ in parts)
    return FitzEvaluation(sum(v for v, _, _, _ in parts),
                          "exact" if exact else "lower_bound", wit)


def _phi_staircase(st: Staircase, x: float, xstar: float, ax: float,
                   axstar: float) -> tuple[float, bool, tuple, Optional[tuple]]:
    """phi of a staircase graph at (x, x*) as (value, exact, point, ray).

    The piece s x* + x s* - s s* is concave along each segment (both
    coordinates grow together), so it peaks at a corner or at the one
    stationary point of a slanted segment, and a slanted end ray peaks
    too.  Along an axis ray it is linear with slope g: x - s or s - x on
    a vertical ray, x* - s* or s* - x* on a horizontal one.  g > 0 beyond
    the rounding of x (known to a few ulps of ax, or ax* for x*) and of
    the ray's base makes phi +inf with that ray, its base the point; a
    g > 0 within rounding leaves the finite value a lower bound.
    """
    C = st.corners
    # (start, direction, reach): each segment, then the two end rays
    edges = [((s0, t0), (s1 - s0, t1 - t0), 1.0)
             for (s0, t0), (s1, t1) in zip(C, C[1:])]
    edges += [(C[0], st.ray0, INF), (C[-1], st.ray1, INF)]
    points = list(C)
    exact = True
    for (s0, t0), (ds, dt), reach in edges:
        a = ds * dt
        g = ds * (xstar - t0) + dt * (x - s0)
        if a > 0:
            # the stationary point of the piece, clipped to the edge
            tau = min(max(g / (2.0 * a), 0.0), reach)
            points.append((s0 + tau * ds, t0 + tau * dt))
        elif g > 0 and reach == INF:
            size = ax + abs(s0) if ds == 0 else axstar + abs(t0)
            if g > 4 * (len(C) + 2) * _EPS * size:
                return INF, True, (s0, t0), (ds, dt)
            exact = False
    # the piece as <x, x*> - (s - x)(s* - x*), exact at (x, x*) itself
    vals = [x * xstar - (s - x) * (t - xstar) for s, t in points]
    k = vals.index(max(vals))
    return vals[k], exact, points[k], None


def _extent(C: CompactConvexSet) -> float:
    """max |c_i| over c in C and i: the largest |sigma_C(+-e_i)|."""
    E = np.eye(C.dim)
    return float(np.max(np.abs(C.support(np.vstack([E, -E])))))


def _swapped(ev: FitzEvaluation) -> FitzEvaluation:
    """``ev`` read in the inverse graph: witness and ray swapped."""
    return replace(
        ev, witness=None if ev.witness is None else ev.witness.swapped(),
        direction=None if ev.direction is None else ev.direction.swapped())


def _ascend_resolvent(
    S: MonotoneOperator,
    x: np.ndarray,
    xstar: np.ndarray,
    wit: PairedPoint,
    best: float,
    seed: int,
) -> tuple[float, PairedPoint]:
    rng = np.random.default_rng(seed + 1)
    z = wit.x + wit.xstar
    radius = 1.0 + float(np.linalg.norm(z))
    for _ in range(6):
        improved = False
        for _ in range(10):
            dz = rng.normal(size=z.size) * radius
            try:
                p = S.resolvent(z + dz)
            except ResolventError:
                continue
            v = float(_piece_value(p.x, p.xstar, x, xstar))
            if v > best + 1e-14:
                best, wit = v, p
                z = p.x + p.xstar
                improved = True
        if not improved:
            radius *= 0.5
    return best, wit


def _phi_linear(S: Linear, x: np.ndarray, xstar: np.ndarray) -> FitzEvaluation:
    # sup_s <s, c> - s'Hs with c = x* + M'x and H the symmetric part of M
    c = xstar + S.M.T @ x
    H = 0.5 * (S.M + S.M.T)
    evals, evecs = np.linalg.eigh(H)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(evals))))
    cb = evecs.T @ c
    value = 0.0
    s_b = np.zeros_like(c)
    for i, ev in enumerate(evals):
        if ev > tol:
            value += 0.25 * cb[i] ** 2 / ev
            s_b[i] = 0.5 * cb[i] / ev
        elif abs(cb[i]) > 1e-9 or ev < -tol:
            # flat or concave-violating direction with nonzero slope: the
            # pieces at s = t v grow as t <v, c> - t^2 <v, Hv>
            v = evecs[:, i] * (-1.0 if cb[i] < 0 else 1.0)
            zero = np.zeros_like(c)
            return FitzEvaluation(INF, "exact", PairedPoint(zero, zero),
                                  direction=PairedPoint(v, S.M @ v))
    s = evecs @ s_b
    return FitzEvaluation(value, "exact", PairedPoint(s, S.M @ s))


def theta(
    S: MonotoneOperator,
    wstar: np.ndarray,
    wstarstar: np.ndarray,
    budget: int = 200,
    seed: int = 0,
) -> FitzEvaluation:
    """theta(w*, w**) = sup over the graph of <s,w*> + <s*,w**> - <s,s*>;
    equals phi(w**, w*) under the finite-dimensional identification."""
    return phi(S, wstarstar, wstar, budget, seed)


def phi_conj(
    S: MonotoneOperator,
    ystar: np.ndarray,
    ystarstar: np.ndarray,
) -> FitzEvaluation:
    """Conjugate of the Fitzpatrick function at (y*, y**).

    Finite graphs: phi is a finite max of affine pieces with gradients
    (s*, s) and offsets -<s,s*>, so the conjugate is the LP
    min sum_i lam_i <s_i, s_i*> over simplex weights lam with
    sum_i lam_i (s_i*, s_i) = (y*, y**), solved by ``solvers.linprog``.
    Its value is exact only when the duality certificate closes: the
    primal residual, the dual infeasibility and the duality gap each
    within 1e4 eps of the scale they round at (``linprog``).  Off the
    hull of the (s_i*, s_i) the LP is infeasible and phi* is +inf,
    reported only with a separating d (``_separation``) whose halves
    (d[:n], d[n:]) are the ``direction`` (x, x*) along which
    <(y*, y**), .> - phi grows without bound.  Otherwise the pairing,
    a lower bound on a monotone graph: there the cost less <y*, y**> is
    half the sum over i, j of lam_i lam_j <s_i - s_j, s_i* - s_j*> >= 0.
    Subdifferentials of f with a closed-form f*: phi <= f + f* on E x E*
    (Fitzpatrick's inequality), so phi*(y*, y**) >= f(y**) + f*(y*)
    >= <y*, y**> (f closed, so f** = f), with equality on the graph.
    That sum, both terms read by ``eval_within`` at the rounding
    4(n + 2) eps (1 + max|y*| + max|y**|) so that a graph point an ulp
    off dom f* is not +inf, is the pairing, exact, within 1e-12 of it;
    +inf, exact, where it is +inf; else a lower bound.  Anything else:
    the pairing lower bound.
    """
    ystar = S.pair.check_dim(ystar, "ystar")
    ystarstar = S.pair.check_dim(ystarstar, "ystarstar")
    p = float(ystar @ ystarstar)

    if isinstance(S, FiniteGraph):
        X, Xs = S.xs(), S.xstars()
        V = np.hstack([Xs, X])
        y = np.concatenate([ystar, ystarstar])
        cost = row_dots(X, Xs)
        lam, _, certified = linprog(cost, np.vstack([V.T, np.ones(len(V))]),
                                    np.append(y, 1.0))
        if certified:
            return FitzEvaluation(float(cost @ lam), "exact",
                                  S.points[int(np.argmax(lam))])
        d = _separation(V, y)
        if d is not None:
            n = S.pair.dim
            return FitzEvaluation(INF, "exact",
                                  direction=PairedPoint(d[:n], d[n:]))
        return FitzEvaluation(p, "lower_bound")

    g = S.f.conjugate_fn() if isinstance(S, Subdifferential) else None
    if g is not None:
        tol = 4 * (ystar.size + 2) * _EPS * (
            1.0 + np.abs(ystar).max() + np.abs(ystarstar).max())
        low = S.f.eval_within(ystarstar, tol) + g.eval_within(ystar, tol)
        if low <= p + 1e-12:
            return FitzEvaluation(p, "exact")
        if low == INF and tol < INF:  # a non-finite point bounds nothing
            return FitzEvaluation(INF, "exact")
        # a NaN sum bounds nothing; the pairing still does
        return FitzEvaluation(low if low > p else p, "lower_bound")

    return FitzEvaluation(p, "lower_bound")


def _separation(V: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """A d with max_i <d, V_i> < <d, y> by more than the rounding of
    either side, so that y is off conv(rows of V), or None.  d is y less
    its nearest hull point; the test evaluates the inner products
    themselves, so it holds whatever rounding the projection left."""
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(y))):
        return None
    d = y - nearest_hull_point(V, y)
    ad = np.abs(d)
    margin = float(d @ y) - float((V @ d).max())
    rounding = 4 * (y.size + 2) * _EPS * (float(ad @ np.abs(y))
                                          + float((np.abs(V) @ ad).max()))
    return d if margin > rounding else None


def theta_conj(
    S: MonotoneOperator,
    wstarstar: np.ndarray,
    wstar: np.ndarray,
) -> FitzEvaluation:
    """Conjugate of theta at (w**, w*); equals phi_conj(w*, w**) under
    the finite-dimensional identification (rename the sup variable)."""
    return phi_conj(S, wstar, wstarstar)


def fitz_membership(
    S: MonotoneOperator,
    ystar: np.ndarray,
    ystarstar: np.ndarray,
    tol: float = 1e-6,
    budget: int = 200,
    seed: int = 0,
) -> str:
    """Membership of (y*, y**) in the graph of the Fitzpatrick
    extension: 'in', 'out', or 'unknown'.

    The criterion is theta(y*, y**) <= <y*, y**> + tol.  Decisive
    paths, in order: exact theta; a sampled theta exceeding the bound
    (out) -- it includes the resolvent point s at z = y** + y*, whose
    piece is <y*, y**> + ||s - y**||_2^2, so no separate resolvent test
    can show out where this one does not; operator graph membership of
    the swapped point (in); for a subdifferential of f, the closed-form
    conjugate chain theta <= f(y**) + f*(y*), which can only show in.
    Otherwise unknown.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ystar = S.pair.check_dim(ystar, "ystar")
    ystarstar = S.pair.check_dim(ystarstar, "ystarstar")
    th = theta(S, ystar, ystarstar, budget, seed)
    return _membership_verdict(S, ystar, ystarstar, th, tol)


def _membership_verdict(S: MonotoneOperator, ystar: np.ndarray,
                        ystarstar: np.ndarray, th: FitzEvaluation,
                        tol: float) -> str:
    """``fitz_membership`` of (y*, y**), given th = theta(y*, y**)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = float(ystar @ ystarstar)
    if th.status == "exact":
        return "in" if th.value <= p + tol else "out"
    if th.value > p + tol:
        return "out"

    if S.contains(ystarstar, ystar, tol=1e-7) == "yes":
        return "in"

    g = S.f.conjugate_fn() if isinstance(S, Subdifferential) else None
    if g is not None and S.f.eval(ystarstar) + g.eval(ystar) <= p + tol:
        return "in"
    return "unknown"
