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
support functions and norms (the inverses of normal cones), and on
shifts and inverses of these.  Any other operator gets a sampled lower
bound.

Extension membership tests theta(y*, y**) <= <y*, y**> + tol.  Sampled
sups only bound from below, so verdicts are three-valued: "out" needs a
lower bound on theta violating the inequality (a sampled witness, or a
resolvent residual on operators maximal by construction), "in" needs an
upper bound meeting it (an exact theta, graph membership, or the
closed-form conjugate chain).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .functions import IndicatorFn
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
from .spaces import PairedPoint, first_min, row_dots

INF = float("inf")
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitzEvaluation:
    """An extended-real sup/inf value with its exactness status."""

    value: float
    status: str  # "exact" or "lower_bound"
    witness: Optional[PairedPoint] = None
    upper: Optional[float] = None  # co-bound when a sandwich is known
    # certificate for +inf: the graph ray witness + t * direction, t >= 0,
    # along which the pieces grow without bound
    direction: Optional[PairedPoint] = None


def _piece_value(s: np.ndarray, sstar: np.ndarray, x: np.ndarray,
                 xstar: np.ndarray) -> np.ndarray:
    """<s, x*> + <x, s*> - <s, s*> over the last axis of (s, s*): for one
    graph point or for each row of a stack."""
    return row_dots(s, xstar) + row_dots(sstar, x) - row_dots(s, sstar)


def _is_maximal_by_construction(S: MonotoneOperator) -> bool:
    if isinstance(S, Subdifferential):
        return True
    if isinstance(S, Linear):
        return True
    if isinstance(S, (Shift, InverseOp)):
        return _is_maximal_by_construction(S.inner)
    return False


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
        if isinstance(S.f, IndicatorFn):
            return _phi_normal_cone(S.f.set_, x, xstar, ax)
        conj = S.f.conjugate_fn()
        if isinstance(conj, IndicatorFn):
            return _swapped(_phi_normal_cone(conj.set_, xstar, x, axstar))
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
            + _extent(C) * float(np.sum(np.abs(d)))):
        s = C.argmax_support(d)
        return FitzEvaluation(INF, "exact", PairedPoint(s, np.zeros_like(s)),
                              direction=PairedPoint(np.zeros_like(d), d))
    wit = PairedPoint(C.argmax_support(xstar), np.zeros_like(x))
    return FitzEvaluation(C.support(xstar),
                          "exact" if C.contains(x, 0.0) else "lower_bound",
                          wit)


def _extent(C: CompactConvexSet) -> float:
    """max |c_i| over c in C and i: the largest |sigma_C(+-e_i)|."""
    E = np.eye(C.dim)
    return max(abs(C.support(e)) for e in np.vstack([E, -E]))


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
    budget: int = 200,
    seed: int = 0,
) -> FitzEvaluation:
    """Conjugate of the Fitzpatrick function at (y*, y**).

    Finite graphs: phi is a finite max of affine pieces with gradients
    (s*, s) and offsets -<s,s*>, so the conjugate is the exact LP
    min sum_i lam_i <s_i, s_i*> over simplex weights reproducing
    (y*, y**); infeasible means +inf.  Subdifferentials: the sandwich
    f*(y*) + f(y**) >= phi* >= <y*, y**> (f closed, so f** = f).
    Anything else: the pairing lower bound.
    """
    ystar = S.pair.check_dim(ystar, "ystar")
    ystarstar = S.pair.check_dim(ystarstar, "ystarstar")
    p = float(ystar @ ystarstar)

    if isinstance(S, FiniteGraph):
        n = S.pair.dim
        m = len(S.points)
        cost = np.array([float(pt.x @ pt.xstar) for pt in S.points])
        A_eq = np.vstack([S.xstars().T, S.xs().T, np.ones((1, m))])
        b_eq = np.concatenate([ystar, ystarstar, [1.0]])
        res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        if res.status == 2:  # infeasible
            return FitzEvaluation(INF, "exact")
        if not res.success:
            return FitzEvaluation(p, "lower_bound")
        lam = res.x
        i = int(np.argmax(lam))
        return FitzEvaluation(float(res.fun), "exact", S.points[i])

    if isinstance(S, Subdifferential):
        f = S.f
        fy = f.eval(ystarstar)
        cv = f.conjugate(ystar)
        upper = fy + cv.value if np.isfinite(fy) else INF
        if cv.exact and np.isfinite(upper) and upper <= p + 1e-12:
            return FitzEvaluation(p, "exact", upper=upper)
        return FitzEvaluation(p, "lower_bound",
                              upper=upper if cv.exact else None)

    return FitzEvaluation(p, "lower_bound")


def theta_conj(
    S: MonotoneOperator,
    wstarstar: np.ndarray,
    wstar: np.ndarray,
    budget: int = 200,
    seed: int = 0,
) -> FitzEvaluation:
    """Conjugate of theta at (w**, w*); equals phi_conj(w*, w**) under
    the finite-dimensional identification (rename the sup variable)."""
    return phi_conj(S, wstar, wstarstar, budget, seed)


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
    paths, in order: exact theta; a sampled witness exceeding the bound
    (out); operator graph membership of the swapped point (in); for a
    subdifferential of f, the closed-form conjugate chain
    theta <= f(y**) + f*(y*), which can only show in; for operators
    maximal by construction, the resolvent point s at z = y** + y*,
    whose theta >= pairing + ||s - y**||_2^2 can only show out.
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

    if isinstance(S, Subdifferential):
        fy = S.f.eval(ystarstar)
        cv = S.f.conjugate(ystar)
        if np.isfinite(fy) and cv.exact and fy + cv.value <= p + tol:
            return "in"

    if _is_maximal_by_construction(S):
        try:
            pt = S.resolvent(ystarstar + ystar)
        except ResolventError:
            return "unknown"
        if float(np.sum((pt.x - ystarstar) ** 2)) > tol:
            return "out"

    return "unknown"
