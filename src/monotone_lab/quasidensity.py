"""The quasidensity gap and its fuzzy variants.

The gap at a probe (x, x*) is the infimum over the graph of

    r(s, s*) = ||s - x||^2/2 + ||s* - x*||^2/2 + <s - x, s* - x*>

with the norms of the operator's pair.  On the Euclidean pair the
algebraic identity a^2/2 + b^2/2 + <a,b> = ||a + b||_2^2/2 turns the
infimum into half the squared distance of x + x* to {s + s*}, which the
resolvent computes exactly.  A probe gap of (numerically) zero
certifies density at that probe; nothing universal is ever claimed.

``gap`` takes one path per probe, picked by ``_path``: the resolvent
oracle (the graph scan where it fails), the LCP of a linear map off the
Euclidean pair, or the graph scan.  ``gaps`` is ``gap`` over a list of
probes, with one stacked resolvent call for its oracle probes and one
graph draw for its scan probes.  The fuzzy variants, in which a set
replaces one component of the probe, are their own functions,
``fuzzy_gap_dual`` and ``fuzzy_gap_primal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .operators import (
    FiniteGraph,
    InverseOp,
    Linear,
    MonotoneOperator,
    ResolventError,
    Shift,
    inverse,
)
from .sets import CompactConvexSet, Polytope
from .solvers import lemke
from .spaces import NormTag, PairedPoint, first_min, row_dots, row_norms


@dataclass(frozen=True)
class GapReport:
    """Best infimum estimate; the witness is a genuine graph point and
    value equals the objective evaluated there ("qp" clips it at its
    lower bound 0), save a fuzzy gap with no finite value: +inf with no
    witness."""

    value: float
    witness: Optional[PairedPoint]
    status: str  # "exact" or "upper_bound"
    # "enumeration", "resolvent" (the exact Euclidean oracle), "qp",
    # "sampled", or "fuzzy_search" (the fuzzy gaps' scan of the sample
    # and the fixed-point orbit's rows, an upper bound)
    method: str


def r_objective(
    S: MonotoneOperator, target: PairedPoint, s: np.ndarray, sstar: np.ndarray
) -> np.ndarray:
    """r at a graph point (s, s*), or at each row of a stack."""
    a = s - target.x
    b = sstar - target.xstar
    na = row_norms(a, S.pair.primal_norm)
    nb = row_norms(b, S.pair.dual_norm)
    return 0.5 * na * na + 0.5 * nb * nb + row_dots(a, b)


def gap(
    S: MonotoneOperator,
    target: PairedPoint,
    budget: int = 100,
    seed: int = 0,
) -> GapReport:
    """Infimum estimate of the r-objective over G(S) at the probe
    target, by the path ``_path`` picks; the LCP (``gap_linear_qp``)
    serves the inverse of a map too, as r of S^{-1} at (x*, x) is r of S
    at (x, x*); the oracle and the scan run as ``gaps`` at the one
    probe."""
    if _path(S, target) == "qp":
        if isinstance(S, Linear):
            return gap_linear_qp(S, target)[0]
        rep = gap_linear_qp(S.inner, target.swapped())[0]
        return replace(rep, witness=rep.witness.swapped())
    rep = gaps(S, [target], budget, seed)[0]
    if isinstance(rep, ResolventError):
        raise rep
    return rep


def gaps(
    S: MonotoneOperator,
    targets: list[PairedPoint],
    budget: int = 100,
    seed: int = 0,
) -> list[GapReport | ResolventError]:
    """``gap(S, t, budget, seed)`` at each probe t, equal to it bit for
    bit, or the ``ResolventError`` that call raises, held as data; any
    other error is raised.  The oracle probes are resolved in one
    stacked call, in which a row that fails fails alone and, as in
    ``gap``, takes the scan; every scan probe is scanned against one
    ``graph_rows`` draw; each LCP probe takes its own ``gap`` call.  A
    probe of the wrong size or with a non-finite entry raises
    ``ValueError`` before any solve."""
    out: list = [None] * len(targets)
    paths = [_path(S, t) for t in targets]
    scan = [k for k, path in enumerate(paths) if path == "scan"]
    oracle = [k for k, path in enumerate(paths) if path == "oracle"]
    if oracle:
        Z = np.array([targets[k].x + targets[k].xstar for k in oracle])
        X, Xs, ok = S.resolvent(Z)
        values = _oracle_value(X, Xs, Z)
        for i, k in enumerate(oracle):
            if ok[i]:
                out[k] = GapReport(float(values[i]),
                                   PairedPoint.of_rows(X[i], Xs[i]),
                                   "exact", "resolvent")
            else:
                scan.append(k)
    if scan:
        rows = _held(S.graph_rows, budget, seed)
        for k in scan:
            out[k] = rows if isinstance(rows, ResolventError) else _held(
                _scan, S, targets[k], *rows)
    for k, rep in enumerate(out):
        if rep is None:
            # through the module global, so that a wrapped gap sees it
            out[k] = _held(gap, S, targets[k], budget, seed)
    return out


def _held(fn, *args):
    """``fn(*args)``, or the ``ResolventError`` it raises."""
    try:
        return fn(*args)
    except ResolventError as exc:
        return exc


def _path(S: MonotoneOperator, target: PairedPoint) -> str:
    """The path ``gap`` takes at the probe target: "scan" for a finite
    graph and a non-monotone ``Linear``, shifted or inverted (the exact
    paths assume a monotone map); else "oracle" on the Euclidean pair,
    "qp" for a ``Linear`` or its inverse off it, "scan" for the rest.
    Raises ``ValueError`` for a probe not of the pair's size or with a
    non-finite entry."""
    S.pair.check_dim(target.x, "probe")
    if not np.isfinite(np.concatenate(target.as_tuple())).all():
        raise ValueError("probe has a non-finite entry")
    if isinstance(S, FiniteGraph):
        return "scan"
    L = S
    while isinstance(L, (Shift, InverseOp)):
        L = L.inner
    if isinstance(L, Linear) and not L.monotone:
        return "scan"
    if S.pair.primal_norm is NormTag.L2:
        return "oracle"
    L = S.inner if isinstance(S, InverseOp) else S
    return "qp" if isinstance(L, Linear) else "scan"


def _scan(S: MonotoneOperator, target: PairedPoint, X: np.ndarray,
          Xs: np.ndarray) -> GapReport:
    """``gap`` at the first best graph row, NaN and +inf skipped,
    raising ``ResolventError`` when no row is finite: exact on a finite
    graph, whose rows are all its points, else a sampled upper bound."""
    vals = r_objective(S, target, X, Xs)
    i = first_min(vals)
    if i is None:
        raise ResolventError("no graph points available for the gap bound")
    return GapReport(float(vals[i]), PairedPoint.of_rows(X[i], Xs[i]),
                     *(("exact", "enumeration") if isinstance(S, FiniteGraph)
                       else ("upper_bound", "sampled")))


def gap_euclidean_oracle(
    S: MonotoneOperator, target: PairedPoint
) -> GapReport:
    """Half the squared Euclidean distance of x + x* to s + s* at the
    resolvent point; exact on the Euclidean pair."""
    if S.pair.primal_norm is not NormTag.L2:
        raise ValueError("the resolvent oracle requires the Euclidean pair")
    z = target.x + target.xstar
    pt = S.resolvent(z)
    return GapReport(float(_oracle_value(pt.x, pt.xstar, z)), pt, "exact",
                     "resolvent")


def _oracle_value(X: np.ndarray, Xs: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Half the squared Euclidean distance of z to x + x*, of a point or
    of each row of a stack."""
    d = (X + Xs) - Z
    return 0.5 * row_dots(d, d)


def gap_linear_qp(
    S: Linear, target: PairedPoint, max_pivots: int = 100000
) -> tuple[GapReport, int]:
    """min over s of r(s, Ms) on an l1/linf pair, by one linear
    complementarity problem solved with ``solvers.lemke``; returns the
    report and the pivot count.

    r >= 0 by Fenchel-Young, with equality where y - Ma is in J(a), for
    a = s - x, y = x* - Mx and J the duality map of the primal norm; for
    monotone M that inclusion is an LCP w = q + Qz, z, w >= 0, z'w = 0
    with Q positive semidefinite, and E = 11' below.  l1: z = (u, v),
    a = u - v, Q = [[E+M, E-M], [E-M, E+M]], q = (-y, y), so that
    |y - Ma| <= 1'(u + v) with equality on the support of a.  linf: r of
    M at (x, x*) is r of M^-1 on l1 at (x*, x), so where M has an
    inverse K the solve is K's l1 LCP, whose point t gives s = Kt.  A
    map with no inverse, one whose inverse has a non-finite entry, or
    one whose value there is above rounding (1e4 eps (1 + c^2) at probe
    scale c, where the gap of a monotone map is 0) also takes the LCP of
    M itself: z = (s+, s-, u, v), s = s+ - s-, u - v = x* - Ms,
    Q = [[M, -M, I, -I], [-M, M, -I, I], [-I, I, E, E], [I, -I, E, E]],
    q = (-x*, x*, x, -x), whose 4n rows come as opposite pairs; its
    points join the inverse's and the pivots add up, ``max_pivots`` in
    all.  r is 2-homogeneous, so the solves run on the probe scaled to
    unit size.  A Newton step on the piece of Lemke's point
    (``_piece_solve``; for s = Kt the piece is read off t) removes its
    rounding.  The value is r at the best graph point (s, Ms) of the
    start (x + x*)/2, Lemke's points and their steps, clipped at 0,
    scored in one stacked pass over the rows s of one array (Ms row by
    row, the bits of each M @ s), the first best row kept, NaN skipped
    (where every score overflows, at unit scale: ``_best_point``); a
    solve that ends on a ray or after ``max_pivots`` pivots adds no
    point.
    """
    M = S.M
    l1 = S.pair.primal_norm is NormTag.L1
    c = float(np.abs(np.concatenate(target.as_tuple())).max()) or 1.0
    x, xs = target.x / c, target.xstar / c
    y = xs - M @ x
    cands, pivots = [0.5 * (x + xs)], 0
    K = None if l1 else _inverse(M)
    if K is not None:
        t, pivots = _lemke_point(K, xs, x, True, max_pivots)
        if t is not None:
            # x* - Ms lies in J(s - x), so the argmax set of |s - x| and
            # its signs are the support and signs of t - x*; t holds
            # them exactly, where s = Kt rounds by the condition of M
            d = t - xs
            m = np.abs(d)
            s = K @ t
            cands += [s, x + _piece_solve(
                M, y, np.where(m > 1e-9 * m.sum(), np.sign(d), 0.0), False)]
        rep = _best_point(S, target, np.array(cands), c)
        if rep.value <= 1e4 * np.finfo(float).eps * (1.0 + c * c):
            return rep, pivots
    s, k = _lemke_point(M, x, xs, l1, max_pivots - pivots)
    if s is not None:
        cands += [s, x + _piece_solve(M, y, s - x, l1)]
    return _best_point(S, target, np.array(cands), c), pivots + k


def _inverse(M: np.ndarray) -> Optional[np.ndarray]:
    """M^-1, or None where ``np.linalg.inv`` finds M singular or the
    inverse has a non-finite entry."""
    try:
        K = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return None
    return K if np.isfinite(K).all() else None


def _lemke_point(M: np.ndarray, x: np.ndarray, xs: np.ndarray, l1: bool,
                 max_pivots: int) -> tuple[Optional[np.ndarray], int]:
    """Lemke's point s of the LCP ``_gap_lcp(M, x, xs, l1)``, None when
    the pivots find no z, and the pivot count."""
    n = len(x)
    z, pivots = lemke(*_gap_lcp(M, x, xs, l1), max_pivots)
    if z is None:
        return None, pivots
    return (x + z[:n] - z[n:] if l1 else z[:n] - z[n:2 * n]), pivots


def _best_point(S: Linear, target: PairedPoint, U: np.ndarray, c: float
                ) -> GapReport:
    """The ``qp`` report at the first best graph point (s, Ms) over the
    rows s of C = cU, r clipped at 0, NaN skipped.  Where every score
    at the probe's scale c is NaN (each an overflow, inf - inf), the
    rows U are scored at the probe scaled to unit size, where the LCP
    ran, and r, which is 2-homogeneous, is scaled back as (r c) c; a
    ``ValueError`` where that finds no number or its graph point at
    scale c is not finite.  An overflow at scale c warns of nothing: its
    NaN is what selects the unit scale."""
    C = c * U
    with np.errstate(over="ignore", invalid="ignore"):
        Cs = S._apply(C)
        i, best = _first_least(r_objective(S, target, C, Cs))
    if math.isnan(best):
        unit = PairedPoint(target.x / c, target.xstar / c)
        i, best = _first_least(r_objective(S, unit, U, S._apply(U)))
        best = best * c * c
        if math.isnan(best) or not np.isfinite(
                np.concatenate([C[i], Cs[i]])).all():
            raise ValueError("All-NaN slice encountered")
    return GapReport(max(best, 0.0), PairedPoint.of_rows(C[i], Cs[i]),
                     "upper_bound", "qp")


def _first_least(r: np.ndarray) -> tuple[int, float]:
    """The row and value of the first least score, NaN read as +inf for
    the row and skipped for the value, as np.nanargmin and
    np.fmin.reduce read them; the value is NaN where every score is."""
    i, best = 0, math.inf
    for k, v in enumerate(r.tolist()):
        if v < best:
            i, best = k, v
    if best == math.inf and np.isnan(r).all():
        return i, math.nan
    return i, best


def _gap_lcp(M: np.ndarray, x: np.ndarray, xs: np.ndarray, l1: bool
             ) -> tuple[np.ndarray, np.ndarray]:
    """The LCP (Q, q) of ``gap_linear_qp`` at the probe (x, x*)."""
    n = len(x)
    if l1:
        y = xs - M @ x
        Q = np.empty((2 * n, 2 * n))
        B = Q.reshape(2, n, 2, n)
        B[0, :, 0] = B[1, :, 1] = 1.0 + M
        B[0, :, 1] = B[1, :, 0] = 1.0 - M
        return Q, np.concatenate([-y, y])
    # -I holds the -0.0 of -eye off its diagonal (the pivots can carry a
    # zero's sign)
    I, E = np.eye(n), np.ones((n, n))
    Q = np.block([[M, -M, I, -I], [-M, M, -I, I], [-I, I, E, E],
                  [I, -I, E, E]])
    return Q, np.concatenate([-xs, xs, x, -x])


def _piece_solve(M: np.ndarray, y: np.ndarray, a: np.ndarray, l1: bool
                 ) -> np.ndarray:
    """The a' solving y in J(a') + Ma' on the piece of a, with J the
    duality map of the primal norm; the Fenchel-Young equality
    conditions are linear there.  l1: (Ma')_i + sig_i <sig, a'> = y_i on
    supp(a), a'_i = 0 off it.  linf: a'_i = sig_i <sig, y - Ma'> on the
    argmax set of |a|, (Ma')_i = y_i off it.  The square system is
    solved by LU, and by least squares where LAPACK finds it singular."""
    m = np.abs(a)
    P = m > 1e-9 * m.sum() if l1 else m >= (1.0 - 1e-9) * m.max()
    sig = np.where(P, np.sign(a), 0.0)
    if l1:
        K = np.where(P[:, None], M + np.outer(sig, sig), np.eye(len(a)))
        rhs = np.where(P, y, 0.0)
    else:
        K = np.where(P[:, None], np.eye(len(a)) + np.outer(sig, sig @ M), M)
        rhs = np.where(P, sig * (sig @ y), y)
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:  # K is singular: a least-squares point
        return np.linalg.lstsq(K, rhs, rcond=None)[0]


# the fixed-point orbit's step test and cap
_ORBIT_STEP = 1e-13
_ORBIT_CAP = 500


def fuzz_orbit(
    S: MonotoneOperator, w: np.ndarray, Wt: CompactConvexSet
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The orbit of T(v) = P_Wt(J_{S^-1}(w + v)) from v_0 = P_Wt(0), to a
    step ||v_(k+1) - v_k||_2 <= 1e-13, 500 steps or a resolvent failure:
    the resolvent points (s_k, s*_k) = J(w + v_k) as rows (X, X*), and
    the last v_k resolved (None when none is).  T composes two firmly
    nonexpansive maps and maps Wt into itself, so its iterates approach a
    fixed point v, where s - w = v - s*: either s* = v lies in S(w) and
    Wt, or <s - w, s*> + sigma_Wt(w - s) = -||s* - v||_2^2 breaks the
    strong-maximality premise (and on l2 the dual-fuzzy objective is 0).
    None of this holds for a finite graph's nearest-point resolvent."""
    v = Wt.project(np.zeros(Wt.dim))
    X, Xs, last = [], [], None
    for _ in range(_ORBIT_CAP):
        try:
            pt = S.resolvent(w + v)
        except ResolventError:
            break
        X.append(pt.x)
        Xs.append(pt.xstar)
        last = v
        v_new = Wt.project(pt.xstar)
        if np.linalg.norm(v_new - v) <= _ORBIT_STEP:
            break
        v = v_new
    return np.reshape(X, (-1, w.size)), np.reshape(Xs, (-1, w.size)), last


def _fuzz_candidates(set_: CompactConvexSet, anchors: np.ndarray
                     ) -> np.ndarray:
    cands = set_.project(np.vstack([anchors, np.zeros(set_.dim)]))
    if isinstance(set_, Polytope):
        cands = np.vstack([cands, set_.vertices])
    return cands


def fuzzy_gap_dual(
    S: MonotoneOperator,
    w: np.ndarray,
    Wt: CompactConvexSet,
    budget: int = 100,
    seed: int = 0,
) -> GapReport:
    """Infimum estimate of the dual-fuzzy objective
    ||s-w||^2/2 + dist(s*, Wt)^2/2 + max<s-w, s*-Wt> over G(S), scanned
    like ``gap``'s rows (exact for a finite graph: ``dist`` is exact);
    otherwise the rows gain the points of ``fuzz_orbit`` and, in one
    stacked resolvent call, those at the fuzz candidates of the first
    five rows, up to the first that fails.  With no finite value the
    report is +inf with no witness."""
    w = S.pair.check_dim(w, "w")
    X, Xs = S.graph_rows(budget, seed)
    finite = isinstance(S, FiniteGraph)
    if not finite:
        OX, OXs, _ = fuzz_orbit(S, w, Wt)
        CX, CXs, ok = S.resolvent(w + _fuzz_candidates(
            Wt, np.vstack([Xs, OXs])[:5]))
        k = int(np.cumprod(ok).sum())  # the rows up to the first failure
        X = np.vstack([X, OX, CX[:k]])
        Xs = np.vstack([Xs, OXs, CXs[:k]])
    # max<s-w, s*-Wt> = <s-w, s*> + support(Wt, w-s)
    na = row_norms(X - w, S.pair.primal_norm)
    d = Wt.dist(Xs, S.pair.dual_norm)
    vals = (0.5 * na * na + 0.5 * d * d + row_dots(X - w, Xs)
            + Wt.support(w - X))
    method = "enumeration" if finite else "fuzzy_search"
    i = first_min(vals)
    if i is None:
        return GapReport(np.inf, None, "upper_bound", method)
    return GapReport(float(vals[i]), PairedPoint.of_rows(X[i], Xs[i]),
                     "exact" if finite else "upper_bound", method)


def fuzzy_gap_primal(
    S: MonotoneOperator,
    W: CompactConvexSet,
    wstar: np.ndarray,
    budget: int = 100,
    seed: int = 0,
) -> GapReport:
    """Infimum estimate of the primal-fuzzy objective
    dist(s, W)^2/2 + ||s*-w*||^2/2 + max<s-W, s*-w*> over G(S): term for
    term the dual-fuzzy objective of S^{-1} at w*, so it runs on
    inverse(S) with the witness swapped back into G(S)."""
    wstar = S.pair.check_dim(wstar, "wstar")
    rep = fuzzy_gap_dual(inverse(S), wstar, W, budget, seed)
    return rep if rep.witness is None else replace(
        rep, witness=rep.witness.swapped())


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
    reports = gaps(S, probes, budget, seed)
    for rep in reports:
        if isinstance(rep, ResolventError):
            raise rep
    values = tuple(rep.value for rep in reports)
    passes = tuple(v <= eta for v in values)
    return QuasidensityReport(tuple(probes), values, passes, eta)
