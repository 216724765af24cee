"""The Fitzpatrick function of a monotone operator, its conjugate, the
graph-sup companion theta, and extension membership.

phi(x, x*) = sup over (s,s*) in G(S) of <s,x*> + <x,s*> - <s,s*>.
theta(w*, w**) is the same sup with the probe roles swapped; in finite
dimensions (E** identified with E, the hat map with the identity) the
two are related by theta(w*, w**) = phi(w**, w*), and every report here
is stated under that identification.

Extension membership tests theta(y*, y**) <= <y*, y**> + tol.  Sampled
sups only bound from below, so verdicts are three-valued: "out" needs a
lower bound on theta violating the inequality (a sampled witness, or a
resolvent residual on operators maximal by construction), "in" needs an
upper bound meeting it (an exact theta, graph membership, or the
closed-form conjugate chain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .operators import (
    FiniteGraph,
    InverseOp,
    Linear,
    MonotoneOperator,
    ResolventError,
    Shift,
    Subdifferential,
)
from .spaces import PairedPoint, first_min, row_dots

INF = float("inf")


@dataclass(frozen=True)
class FitzEvaluation:
    """An extended-real sup/inf value with its exactness status."""

    value: float
    status: str  # "exact" or "lower_bound"
    witness: Optional[PairedPoint] = None
    upper: Optional[float] = None  # co-bound when a sandwich is known
    direction: Optional[np.ndarray] = None  # certificate for +inf


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

    Exact for finite graphs (enumeration) and linear maps (concave
    quadratic maximized in closed form); otherwise a sampled lower
    bound that always includes the resolvent point at z = x + x*, which
    pins phi >= <x, x*> constructively.  NaN and -inf pieces are
    skipped; with none left, phi is a -inf lower bound.
    """
    x = S.pair.check_dim(x, "x")
    xstar = S.pair.check_dim(xstar, "xstar")

    if isinstance(S, Linear):
        return _phi_linear(S, x, xstar)

    # the rows of a finite graph are all its points
    finite = isinstance(S, FiniteGraph)
    X, Xs = S.graph_rows(budget, seed)
    if not finite:
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
    if finite:
        return FitzEvaluation(float(vals[i]), "exact", wit)
    # local refinement around the best candidate through the resolvent
    best, wit = _ascend_resolvent(S, x, xstar, wit, float(vals[i]), seed)
    return FitzEvaluation(best, "lower_bound", wit)


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
            # flat or concave-violating direction with nonzero slope
            return FitzEvaluation(INF, "exact", direction=evecs[:, i].copy())
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
    p = float(ystar @ ystarstar)

    th = theta(S, ystar, ystarstar, budget, seed)
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
