"""Sampled instantiations of operator classes: domain-side local
maximality, range-side local maximality, the negative-infimum criterion,
and strong maximality with fuzz sets.

Premise testing is one-sided by construction: "premise holds" means no
sampled counterexample at the given (budget, seed), and every verdict
records both.  Graph membership "(w, w*) in G(S)" is the operator's
three-valued ``contains``, or its ``residual`` (+inf on failure).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fitzpatrick import theta
from .operators import FiniteGraph, MonotoneOperator, ResolventError, inverse
from .quasidensity import fuzz_orbit
from .sets import CompactConvexSet
from .spaces import PairedPoint, first_min, row_dots

_PREMISE_TOL = 1e-10


@dataclass(frozen=True)
class ClassifierVerdict:
    premise_holds: bool
    premise_witness: Optional[PairedPoint]
    conclusion: str  # "in" / "out" / "unknown"
    vacuous: bool

    @property
    def consistent_with_class(self) -> bool:
        return not (self.premise_holds and self.conclusion == "out")


def _windowed_check(
    S: MonotoneOperator,
    U: CompactConvexSet,
    w: np.ndarray,
    wstar: np.ndarray,
    budget: int,
    seed: int,
) -> ClassifierVerdict:
    w = S.pair.check_dim(w, "w")
    wstar = S.pair.check_dim(wstar, "wstar")
    n = S.pair.dim
    X, Xs = S.graph_rows(budget, seed)
    probes = _window_probes(S, U, wstar, Xs, seed)
    # rows [s | s*]: the graph sample, the window probes, then (w, w*),
    # all tested by one interior pass, w at its own tolerance
    m, k = len(X), len(probes)
    R = np.empty((m + k + 1, 2 * n))
    R[:m, :n], R[:m, n:], R[m:-1] = X, Xs, probes
    R[-1, :n], R[-1, n:] = w, wstar
    tol = np.empty(m + k + 1)
    tol.fill(1e-12)
    tol[-1] = 1e-9
    inside = U.interior_mask(R[:, :n], tol)
    if not inside[-1]:
        raise ValueError("the reference point must lie inside the window")
    inside[-1] = False
    R = R[inside]
    X, Xs = R[:, :n], R[:, n:]
    hits = len(R)
    vals = row_dots(X - w, Xs - wstar)
    i = first_min(vals)
    worst = np.inf if i is None else float(vals[i])
    premise = worst >= -_PREMISE_TOL
    member = S.contains(w, wstar, tol=1e-7)
    conclusion = {"yes": "in", "no": "out"}.get(member, "unknown")
    return ClassifierVerdict(
        premise_holds=premise and hits > 0,
        premise_witness=None if premise else PairedPoint.of_rows(X[i], Xs[i]),
        conclusion=conclusion,
        vacuous=hits == 0,
    )


def _window_probes(
    S: MonotoneOperator,
    U: CompactConvexSet,
    wstar: np.ndarray,
    base_xstar: np.ndarray,
    seed: int,
) -> np.ndarray:
    """Graph points aimed into the window through the resolvent, as rows
    [s | s*] of one (k, 2n) array.

    The default sample cloud tracks the graph's own scale and can miss
    the window entirely, which would let a premise pass by blindness;
    these probes target z = u + v with u drawn inside the window and v
    taken from w* and the sampled partner components, then
    re-aim once at u + p* with the observed partner p* so that the
    windowed component lands near u.  The points come in the order
    p_0, q_0, p_1, q_1, ... (q_k the re-aimed p_k) and stop at the first
    resolvent failure.  Each stage is one stacked resolvent call whose
    rows count up to the first failed one, and the re-aim resolves only
    the leading rows that succeeded; each stage's rows are written once,
    the p_k to the even rows and the q_k to the odd ones.  A finite
    graph is sampled whole already and gets none.
    """
    n = S.pair.dim
    if isinstance(S, FiniteGraph):
        return np.empty((0, 2 * n))
    rng = np.random.default_rng(seed + 17)
    targets = U.project(np.concatenate([
        rng.normal(size=(8, n)) * 3.0, np.zeros((1, n))]))
    partners = np.concatenate([wstar[None], base_xstar[:6]])
    # the aims u_i + v_j, i major; k and j count the leading rows that
    # succeeded
    P, Ps, ok = S.resolvent((targets[:, None, :] + partners).reshape(-1, n))
    k = len(ok) if np.logical_and.reduce(ok) else int(ok.argmin())
    if k == 0:
        return np.empty((0, 2 * n))
    u = targets[np.arange(k) // len(partners)]
    Q, Qs, ok = S.resolvent(u + Ps[:k])
    j = len(ok) if np.logical_and.reduce(ok) else int(ok.argmin())
    # p_0, q_0, ..., p_(j-1), q_(j-1), then p_j if its re-aim failed
    m = min(j + 1, k)
    out = np.empty((m + j, 2 * n))
    out[0::2, :n], out[0::2, n:] = P[:m], Ps[:m]
    out[1::2, :n], out[1::2, n:] = Q[:j], Qs[:j]
    return out


def check_fpv(
    S: MonotoneOperator,
    U: CompactConvexSet,
    w: np.ndarray,
    wstar: np.ndarray,
    budget: int = 200,
    seed: int = 0,
) -> ClassifierVerdict:
    """Domain-side window test: every sampled (s, s*) with s in the open
    window U, the interior of the set U, must satisfy
    <s - w, s* - w*> >= 0; w must lie in that interior, and the
    conclusion tests (w, w*) in G(S)."""
    return _windowed_check(S, U, w, wstar, budget, seed)


def check_fp(
    S: MonotoneOperator,
    Ut: CompactConvexSet,
    w: np.ndarray,
    wstar: np.ndarray,
    budget: int = 200,
    seed: int = 0,
) -> ClassifierVerdict:
    """Range-side window test over sampled graph points with s* in the
    open window Ut, the interior of the set Ut, which w* must lie in.
    It is the domain-side test of S^{-1} at (w*, w), its premise witness
    swapped back into G(S)."""
    w = S.pair.check_dim(w, "w")
    wstar = S.pair.check_dim(wstar, "wstar")
    v = _windowed_check(inverse(S), Ut, wstar, w, budget, seed)
    return ClassifierVerdict(v.premise_holds, _swapped(v.premise_witness),
                             v.conclusion, v.vacuous)


def _swapped(p: Optional[PairedPoint]) -> Optional[PairedPoint]:
    return None if p is None else p.swapped()


def ni_infimum(
    S: MonotoneOperator,
    wstar: np.ndarray,
    wstarstar: np.ndarray,
    budget: int = 200,
    seed: int = 0,
) -> float:
    """Best estimate of inf over the graph of <s* - w*, s - w**>, through
    the identity inf = <w*, w**> - theta(w*, w**).

    Exact wherever theta is: on finite graphs, linear maps, normal
    cones, subdifferentials of support functions, norms and separable
    functions, and shifts and inverses of these; there the infimum is
    -inf where theta is
    +inf (a report writes it "-inf").  Otherwise theta is a sampled
    lower bound, so this is an upper bound on the infimum: the minimum
    over samples plus the resolvent candidate at z = w** + w*, which
    contributes -||s - w**||_2^2.
    """
    wstar = S.pair.check_dim(wstar, "wstar")
    wstarstar = S.pair.check_dim(wstarstar, "wstarstar")
    p = float(wstar @ wstarstar)

    # exact when theta is; otherwise theta is a sampled lower bound, so
    # this is an upper bound on the infimum
    return p - theta(S, wstar, wstarstar, budget, seed).value


@dataclass(frozen=True)
class StrongMaxResult:
    premise_holds: bool
    premise_witness: Optional[PairedPoint]
    found: bool
    point: Optional[PairedPoint]
    residual: float
    status: str  # "found" / "premise_failed" / "unknown"


def strong_max_dual(
    S: MonotoneOperator,
    w: np.ndarray,
    Wt: CompactConvexSet,
    budget: int = 200,
    seed: int = 0,
) -> StrongMaxResult:
    """Tests the premise max<s - w, s* - Wt> >= 0 over sampled graph
    rows, then on the rows of ``quasidensity.fuzz_orbit``: "found" when
    (w, v) has residual <= 1e-6 at the orbit's last v, a point of Wt;
    else "premise_failed" with an orbit row as witness, or "unknown"."""
    w = S.pair.check_dim(w, "w")
    witness = _premise_witness(w, Wt, *S.graph_rows(budget, seed))
    if witness is None:
        X, Xs, v = fuzz_orbit(S, w, Wt)
        point, res = None, np.inf
        if v is not None:
            point = PairedPoint(w, v)
            if type(S).residual is MonotoneOperator.residual:
                # the base residual at (w, v) resolves w + v, which is
                # the orbit's last row
                res = float(np.linalg.norm(X[-1] - w)
                            + np.linalg.norm(Xs[-1] - v))
            else:
                try:
                    res = S.residual(w, v)
                except ResolventError:
                    pass
        if res <= 1e-6:
            return StrongMaxResult(True, None, True, point, res, "found")
        witness = _premise_witness(w, Wt, X, Xs)
        if witness is None:
            return StrongMaxResult(True, None, False, point, res, "unknown")
    return StrongMaxResult(False, witness, False, None, np.inf,
                           "premise_failed")


def _premise_witness(w: np.ndarray, Wt: CompactConvexSet, X: np.ndarray,
                     Xs: np.ndarray) -> Optional[PairedPoint]:
    """The first row (s, s*) of least premise value
    <s - w, s*> + support(Wt, w - s), the max over the fuzz set of
    <s - w, s* - w*>, when that value is below -1e-10; else None."""
    vals = row_dots(X - w, Xs) + Wt.support(w - X)
    i = first_min(vals)
    if i is None or vals[i] >= -_PREMISE_TOL:
        return None
    return PairedPoint.of_rows(X[i], Xs[i])


def strong_max_primal(
    S: MonotoneOperator,
    W: CompactConvexSet,
    wstar: np.ndarray,
    budget: int = 200,
    seed: int = 0,
) -> StrongMaxResult:
    """strong_max_dual of S^{-1} at w*: searches w in W with (w, w*) in
    G(S); the point and the premise witness are swapped back."""
    wstar = S.pair.check_dim(wstar, "wstar")
    res = strong_max_dual(inverse(S), wstar, W, budget, seed)
    return replace(res, premise_witness=_swapped(res.premise_witness),
                   point=_swapped(res.point))
