"""The quasidensity gap and its fuzzy variants.

The gap at a probe (x, x*) is the infimum over the graph of

    r(s, s*) = ||s - x||^2/2 + ||s* - x*||^2/2 + <s - x, s* - x*>

with the norms of the operator's pair.  On the Euclidean pair the
algebraic identity a^2/2 + b^2/2 + <a,b> = ||a + b||_2^2/2 turns the
infimum into half the squared distance of x + x* to {s + s*}, which the
resolvent computes exactly.  A probe gap of (numerically) zero
certifies density at that probe; nothing universal is ever claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operators import (
    FiniteGraph,
    Linear,
    MonotoneOperator,
    ResolventError,
)
from .sets import CompactConvexSet, Polytope
from .solvers import subgradient_descent
from .spaces import NormTag, PairedPoint, vector_norm


@dataclass(frozen=True)
class GapQuery:
    """A gap probe: the target point, an optional fuzz set replacing one
    component, and the pass tolerance eta."""

    target: PairedPoint
    dual_fuzz: Optional[CompactConvexSet] = None
    primal_fuzz: Optional[CompactConvexSet] = None
    eta: float = 1e-6

    def __post_init__(self) -> None:
        if self.dual_fuzz is not None and self.primal_fuzz is not None:
            raise ValueError("at most one fuzz set may be given")
        if self.eta <= 0:
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class GapReport:
    """Best infimum estimate; the witness is always a genuine graph
    point and value equals the objective evaluated there."""

    value: float
    witness: PairedPoint
    status: str  # "exact" or "upper_bound"
    method: str  # "enumeration", "resolvent", "subgradient_descent", "sampled"


def r_objective(
    S: MonotoneOperator, target: PairedPoint, s: np.ndarray, sstar: np.ndarray
) -> float:
    a = s - target.x
    b = sstar - target.xstar
    na = vector_norm(a, S.pair.primal_norm)
    nb = vector_norm(b, S.pair.dual_norm)
    return 0.5 * na * na + 0.5 * nb * nb + float(a @ b)


def gap(
    S: MonotoneOperator,
    q: GapQuery,
    budget: int = 100,
    seed: int = 0,
) -> GapReport:
    """Infimum estimate of the r-objective over G(S) at q.target.

    Exact for finite graphs; exact through the resolvent on Euclidean
    pairs; otherwise seeded multi-start subgradient descent over the
    graph parameterization (linear maps) or a sampled upper bound.
    """
    if q.dual_fuzz is not None:
        return fuzzy_gap_dual(S, q.target.x, q.dual_fuzz, budget, seed)
    if q.primal_fuzz is not None:
        return fuzzy_gap_primal(S, q.primal_fuzz, q.target.xstar, budget, seed)
    target = q.target

    if isinstance(S, FiniteGraph):
        vals = [r_objective(S, target, p.x, p.xstar) for p in S.points]
        i = int(np.argmin(vals))
        return GapReport(vals[i], S.points[i], "exact", "enumeration")

    if S.pair.primal_norm is NormTag.L2:
        try:
            return gap_euclidean_oracle(S, target)
        except ResolventError:
            pass

    if isinstance(S, Linear):
        return _gap_linear_descent(S, target, budget, seed)

    best = np.inf
    wit = None
    for p in S.graph_sample(budget, seed):
        v = r_objective(S, target, p.x, p.xstar)
        if v < best:
            best, wit = v, p
    if wit is None:
        raise ResolventError("no graph points available for the gap bound")
    return GapReport(best, wit, "upper_bound", "sampled")


def gap_euclidean_oracle(
    S: MonotoneOperator, target: PairedPoint
) -> GapReport:
    """Half the squared Euclidean distance of x + x* to s + s* at the
    resolvent point; exact on the Euclidean pair."""
    if S.pair.primal_norm is not NormTag.L2:
        raise ValueError("the resolvent oracle requires the Euclidean pair")
    z = target.x + target.xstar
    pt = S.resolvent(z)
    d = (pt.x + pt.xstar) - z
    return GapReport(0.5 * float(d @ d), pt, "exact", "resolvent")


def _gap_linear_descent(
    S: Linear, target: PairedPoint, budget: int, seed: int
) -> GapReport:
    # minimize over s of r(s, Ms); nonsmooth under l1/linf
    M = S.M
    pn, dn = S.pair.primal_norm, S.pair.dual_norm

    def obj(s: np.ndarray) -> float:
        return r_objective(S, target, s, M @ s)

    def sub(s: np.ndarray) -> np.ndarray:
        a = s - target.x
        b = M @ s - target.xstar
        na = vector_norm(a, pn)
        nb = vector_norm(b, dn)
        from .spaces import norm_subgradient

        g = na * norm_subgradient(a, pn)
        g = g + M.T @ (nb * norm_subgradient(b, dn))
        return g + b + M.T @ a

    rng = np.random.default_rng(seed)
    scale = 1.0 + float(np.max(np.abs(np.concatenate([target.x,
                                                      target.xstar]))))
    starts = [target.x.copy(), 0.5 * (target.x + target.xstar),
              np.zeros(S.pair.dim)]
    n_restarts = max(3, min(12, budget // 8))
    while len(starts) < n_restarts:
        starts.append(rng.uniform(-scale, scale, size=S.pair.dim))
    s_best, f_best, steps = subgradient_descent(
        obj, sub, starts, step_scale=0.5 * scale,
        max_steps=max(2000, budget * 20),
    )
    return GapReport(f_best, PairedPoint(s_best, M @ s_best),
                     "upper_bound", "subgradient_descent")


def _dual_fuzz_objective(
    S: MonotoneOperator, w: np.ndarray, Wt: CompactConvexSet,
    s: np.ndarray, sstar: np.ndarray,
) -> float:
    # max<s-w, s*-Wt> = <s-w, s*> + support(Wt, w-s)
    a = s - w
    na = vector_norm(a, S.pair.primal_norm)
    d = Wt.dist(sstar, S.pair.dual_norm)
    return 0.5 * na * na + 0.5 * d * d + float(a @ sstar) + Wt.support(w - s)


def _primal_fuzz_objective(
    S: MonotoneOperator, W: CompactConvexSet, wstar: np.ndarray,
    s: np.ndarray, sstar: np.ndarray,
) -> float:
    b = sstar - wstar
    nb = vector_norm(b, S.pair.dual_norm)
    d = W.dist(s, S.pair.primal_norm)
    return 0.5 * d * d + 0.5 * nb * nb + float(s @ b) + W.support(-b)


def _fuzz_candidates(set_: CompactConvexSet, anchors: list[np.ndarray]
                     ) -> list[np.ndarray]:
    cands = [set_.project(a) for a in anchors]
    cands.append(set_.project(np.zeros(set_.dim)))
    if isinstance(set_, Polytope):
        cands.extend(list(set_.vertices))
    return cands


def fuzzy_gap_dual(
    S: MonotoneOperator,
    w: np.ndarray,
    Wt: CompactConvexSet,
    budget: int = 100,
    seed: int = 0,
) -> GapReport:
    """Infimum estimate of the dual-fuzzy objective
    ||s-w||^2/2 + dist(s*, Wt)^2/2 + max<s-w, s*-Wt> over G(S)."""
    w = S.pair.check_dim(w, "w")

    def obj(p: PairedPoint) -> float:
        return _dual_fuzz_objective(S, w, Wt, p.x, p.xstar)

    if isinstance(S, FiniteGraph):
        vals = [obj(p) for p in S.points]
        i = int(np.argmin(vals))
        return GapReport(vals[i], S.points[i], "exact", "enumeration")

    candidates = list(S.graph_sample(budget, seed))
    # alternating refinement: plug a fuzz point, take the resolvent gap
    # witness, re-project its dual component back into the fuzz set
    wt = Wt.project(np.zeros(Wt.dim))
    for _ in range(12):
        try:
            pt = S.resolvent(w + wt)
        except ResolventError:
            break
        candidates.append(pt)
        wt_new = Wt.project(pt.xstar)
        if np.linalg.norm(wt_new - wt) <= 1e-13:
            break
        wt = wt_new
    for wt0 in _fuzz_candidates(Wt, [c.xstar for c in candidates[:5]]):
        try:
            candidates.append(S.resolvent(w + wt0))
        except ResolventError:
            break
    best, wit = np.inf, None
    for p in candidates:
        v = obj(p)
        if v < best:
            best, wit = v, p
    return GapReport(best, wit, "upper_bound", "resolvent")


def fuzzy_gap_primal(
    S: MonotoneOperator,
    W: CompactConvexSet,
    wstar: np.ndarray,
    budget: int = 100,
    seed: int = 0,
) -> GapReport:
    """Infimum estimate of the primal-fuzzy objective
    dist(s, W)^2/2 + ||s*-w*||^2/2 + max<s-W, s*-w*> over G(S)."""
    wstar = S.pair.check_dim(wstar, "wstar")

    def obj(p: PairedPoint) -> float:
        return _primal_fuzz_objective(S, W, wstar, p.x, p.xstar)

    if isinstance(S, FiniteGraph):
        vals = [obj(p) for p in S.points]
        i = int(np.argmin(vals))
        return GapReport(vals[i], S.points[i], "exact", "enumeration")

    candidates = list(S.graph_sample(budget, seed))
    wv = W.project(np.zeros(W.dim))
    for _ in range(12):
        try:
            pt = S.resolvent(wv + wstar)
        except ResolventError:
            break
        candidates.append(pt)
        wv_new = W.project(pt.x)
        if np.linalg.norm(wv_new - wv) <= 1e-13:
            break
        wv = wv_new
    for w0 in _fuzz_candidates(W, [c.x for c in candidates[:5]]):
        try:
            candidates.append(S.resolvent(w0 + wstar))
        except ResolventError:
            break
    best, wit = np.inf, None
    for p in candidates:
        v = obj(p)
        if v < best:
            best, wit = v, p
    return GapReport(best, wit, "upper_bound", "resolvent")


@dataclass(frozen=True)
class QuasidensityReport:
    """Per-probe gap verdicts; the summary only speaks about the probe
    set, never the universal property."""

    probes: tuple[PairedPoint, ...]
    gaps: tuple[float, ...]
    passes: tuple[bool, ...]
    eta: float

    @property
    def all_pass(self) -> bool:
        return all(self.passes)


def default_probes(
    S: MonotoneOperator, count: int, seed: int
) -> list[PairedPoint]:
    """Seeded probe cloud in [-R, R]^{2n} with R twice the graph sample
    radius, so probes exceed the graph's own scale."""
    R = 2.0 * S.sample_radius(32, seed)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-R, R, size=(count, 2 * S.pair.dim))
    n = S.pair.dim
    return [PairedPoint(row[:n], row[n:]) for row in pts]


def is_quasidense(
    S: MonotoneOperator,
    probes: list[PairedPoint],
    eta: float = 1e-6,
    budget: int = 100,
    seed: int = 0,
) -> QuasidensityReport:
    """Gap <= eta per probe; all-pass means quasidense on this probe
    set only."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    gaps = []
    for p in probes:
        rep = gap(S, GapQuery(p, eta=eta), budget=budget, seed=seed)
        gaps.append(rep.value)
    passes = tuple(g <= eta for g in gaps)
    return QuasidensityReport(tuple(probes), tuple(gaps), passes, eta)
