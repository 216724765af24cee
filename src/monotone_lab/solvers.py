"""Small numerical workhorses shared by the rest of the package: simplex,
ball and hull projections, Douglas-Rachford (over a point or a stack of
rows, each row stopping on its own and leaving the prox calls) with the
one sum resolvent of ``SumOp`` and ``SumFn`` on it, Lemke's pivoting
for linear complementarity problems, linear programs in standard form
as the skew-symmetric LCP of their optimality conditions (with a
duality certificate), and projected subgradient descent.

Everything here is deterministic given its inputs (and seed, where one
appears); nothing keeps state between calls.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .spaces import NormTag, each_row, row_norms


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex."""
    return _project_scaled_simplex(np.asarray(v, dtype=float), 1.0)


def _project_scaled_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto {w >= 0, sum(w) = total > 0}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    cond = u - css / np.arange(1, v.size + 1) > 0
    # u[0] - css[0] = total > 0 exactly; rounding loses it once u[0]
    # exceeds total by a factor near 2**53
    cond[0] = True
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto the l1 ball of given radius.

    Thresholds |v| against the radius directly: dividing by the radius
    overflows for radii below |v| * 2**-1024.
    """
    v = np.asarray(v, dtype=float)
    if radius <= 0:
        return np.zeros_like(v)
    if np.sum(np.abs(v)) <= radius:
        return v.copy()
    return np.sign(v) * _project_scaled_simplex(np.abs(v), radius)


def project_ball(v: np.ndarray, radius: float, kind: str) -> np.ndarray:
    """Euclidean projection onto the centered norm ball ``{||x||_kind <= r}``
    over the last axis of ``v``, one point or a stack of rows: a closed
    form for l2 and linf, a loop over the rows for l1."""
    v = np.asarray(v, dtype=float)
    if kind == "l2":
        n = row_norms(v, NormTag.L2)
        # the factor is 1 inside the ball and radius / n outside; for
        # radius 0 any positive floor gives 0 (v is 0 where n is)
        return v * (radius / np.maximum(n, radius or 1.0))[..., None]
    if kind == "linf":
        return np.clip(v, -radius, radius)
    if kind == "l1":
        return each_row(lambda row: project_l1_ball(row, radius), v)
    raise ValueError(f"unknown ball kind {kind!r}")


def nearest_hull_point(vertices: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``y`` onto conv(vertices).

    A clip in one dimension.  Otherwise Wolfe's minimum-norm-point
    algorithm (P. Wolfe, "Finding the nearest point in a polytope",
    Math. Programming 11 (1976) 128-149) on the translated vertices
    P = V - y: it keeps a corral S of vertices with positive convex
    weights w, adds the vertex j minimizing <P_j, x> at x = P[S]' w
    (major cycle), and moves toward the affine minimizer of S, dropping
    the vertices whose weight that move zeroes (minor cycle).  It is
    finite and exact.  It stops when no vertex outside S lowers
    <P_j, x> below <x, x> in floating point, or when the entering vertex
    leaves S again at once; the iteration cap only guards against longer
    rounding cycles.  Ties go to the lowest vertex index.

    The result is the convex combination V[S]' w of the original
    vertices, not y + x, which would cancel for far-away ``y``; for the
    same reason the stopping test and the affine minimizer are computed
    from vertices and their differences, whose size does not grow with
    ``y``.
    """
    V = np.asarray(vertices, dtype=float)
    y = np.asarray(y, dtype=float)
    m = V.shape[0]
    if m == 1:
        return V[0].copy()
    if V.shape[1] == 1:
        return np.clip(y, V.min(), V.max())
    S = [int(np.argmin(np.sum((V - y) ** 2, axis=1)))]
    w = np.ones(1)
    for _ in range(8 * m + 8):
        p = w @ V[S]
        x = p - y
        # x.x - P_j.x = (p - V_j).x from vertex differences, as x.p and
        # V_j.x round off eps |x| |p|, more than a thin face offers.  No
        # relative tolerance: it would leave p sqrt(tol) off near a face.
        gain = (p - V) @ x
        # only a vertex outside S can enter: a corral vertex of weight
        # near 0 can tie the one that should, on rounding alone
        gain[S] = -np.inf
        j = int(np.argmax(gain))
        if gain[j] <= 0.0:
            break
        corral = list(S)
        S.append(j)
        w = np.append(w, 0.0)
        while True:
            alpha = _affine_minimizer(V[S], y)
            if alpha is None:  # S spans less than y - V can resolve
                return p
            if np.all(alpha > 0):
                w = alpha
                break
            neg = np.nonzero(alpha <= 0)[0]
            # a vertex of weight zero (the one just added) leaves at once
            ratios = np.divide(w[neg], w[neg] - alpha[neg],
                               out=np.zeros(neg.size), where=w[neg] > 0)
            k = int(np.argmin(ratios))
            w = w + ratios[k] * (alpha - w)
            w[neg[k]] = 0.0
            keep = w > 0
            S = [s for s, kept in zip(S, keep) if kept]
            w = w[keep]
        if S == corral:  # j entered on rounding alone
            break
    return w @ V[S]


def _affine_minimizer(Q: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Affine weights (summing to one) of the point of aff(rows of Q)
    nearest ``y``, solved in the differences Q[1:] - Q[0]; None when
    they overflow, as for differences near 1e-308 times |y - Q[0]|."""
    if Q.shape[0] == 1:
        return np.ones(1)
    beta = np.linalg.lstsq((Q[1:] - Q[0]).T, y - Q[0], rcond=None)[0]
    if not np.all(np.isfinite(beta)):
        return None
    return np.concatenate(([1.0 - beta.sum()], beta))


def douglas_rachford(
    prox_a: Callable[[np.ndarray, object], np.ndarray],
    prox_b: Callable[[np.ndarray, object], np.ndarray],
    z0: np.ndarray,
    max_iter: int = 4000,
    tol: float = 1e-12,
) -> tuple[np.ndarray, float | np.ndarray, bool | tuple[bool, ...]]:
    """Douglas-Rachford iteration for 0 in A(x) + B(x), over the last
    axis of ``z0``: one point (n,) or a stack of rows (m, n).

    ``prox_a`` / ``prox_b`` are the resolvents of A and B (step already
    absorbed), called as ``prox(v, rows)`` on the iterates v of the rows
    ``rows`` of ``z0``: ``...`` while every row runs, else an index
    array.  Returns (x, residual, converged) where x = J_A(y) at the
    final shadow iterate.  Each row stops at its own test residual <=
    tol and is left out of the later calls, so with proxes that act row
    by row each row of a stack is its point run bit for bit.  For a
    point the residual is a float and converged a bool; for a stack
    they are an (m,) array and a tuple of m bools: a tuple has a truth
    value where an array of several rows raises, and the benchmark's
    tracer tests ``not converged`` on every result.
    """
    yl = np.array(z0, dtype=float)
    xl = prox_a(yl, ...)
    rl = np.full(yl.shape[:-1], np.inf)
    rows = yl.ndim > 1
    # the rows still running (their index in z0) and their iterates yl,
    # xl and residuals rl; x and res take each row as it stops
    live, x, res = ..., xl, rl
    # an empty stack has no row to run
    for _ in range(max_iter if rl.size else 0):
        w = prox_b(2.0 * xl - yl, live)
        yl = yl + w - xl
        x_new = prox_a(yl, live)
        rl = row_norms(x_new - xl, NormTag.L2) + row_norms(w - xl, NormTag.L2)
        xl = x_new
        stop = rl <= tol
        if not rows:
            # a point's test is a numpy bool, which needs no reduction
            if stop:
                break
        elif stop.any():
            if live is ...:
                x, res, live = np.array(xl), rl, np.arange(len(yl))
            else:
                x[live[stop]], res[live[stop]] = xl[stop], rl[stop]
            run = ~stop
            live, yl, xl, rl = live[run], yl[run], xl[run], rl[run]
            if not live.size:
                break
    if live is ...:
        x, res = xl, rl
    else:
        x[live], res[live] = xl, rl
    done = res <= tol
    if rows:
        return x, res, tuple(done.tolist())
    return x, float(res), bool(done)


def sum_resolvent(ja: Callable, jb: Callable, z: np.ndarray,
                  lam: float) -> tuple[np.ndarray, float | np.ndarray,
                                       bool | tuple[bool, ...]]:
    """(I + lam*(A + B))^{-1} z by Douglas-Rachford, from the step-t
    resolvents ``ja(v, t)`` of A and ``jb(v, t)`` of B, for a point
    ``z`` or each row of a stack.

    Splits 0 in lam*A(x) + [lam*B(x) + x - z]: the resolvent of the
    bracket at step lam is that of B at step lam/2 aimed at (v + z)/2.
    Returns (x, residual, converged) as ``douglas_rachford`` does.
    """
    return douglas_rachford(lambda v, _: ja(v, lam),
                            lambda v, rows: jb((v + z[rows]) / 2.0,
                                               lam / 2.0),
                            z, max_iter=6000, tol=1e-13)


def lemke(Q: np.ndarray, q: np.ndarray, max_pivots: int = 100000
          ) -> tuple[np.ndarray | None, int]:
    """z >= 0 with w = q + Qz >= 0 and z'w = 0, by Lemke's complementary
    pivoting (C. E. Lemke, "Bimatrix equilibrium points and mathematical
    programming", Management Science 11 (1965) 681-689).

    A dense tableau over (w, z, z0) for w - Qz - z0 1 = q, with q and Q
    each scaled to unit size (z scales back), filled in place.  z0 first
    enters at the most negative q_i, the last of the rows within the
    rounding tolerance of it: that is the lexicographic rule's row, as
    at the start B^-1 = I and its column e_k, which the rule reads in
    turn, drops row k from the tie (``_pivot``).  Then the complement of
    each leaving variable enters, until z0 leaves; a q that is >= 0 up
    to 1e-12 of max |q| needs no pivot.  The ratio test
    (``_ratio_test``) is lexicographic in (basic values, B^-1) (Cottle,
    Pang & Stone, "The Linear Complementarity Problem", 1992, 4.9), so a
    degenerate q, with tied entries, is no special case, but it first
    takes Harris's tolerance band and its large pivots; it reads each
    pivot's basic values and entering column once, as Python scalars of
    the tableau's precision.  Where Q spans many scales the exact path
    can pivot on entries near 1e-10, and rounding can then end the
    pivots on a ray or in a cycle, or the band can leave w a tolerance
    below 0: such a run is pivoted again in extended precision
    (``np.longdouble``, a 64-bit mantissa on x86), first with double's
    rounding tolerance and then with its own, each with the pivots
    left.  Returns (z, pivots): z is None when no run found a solution
    (each ended on a secondary ray, where the entering column has no
    positive entry, in a cycle or on a NaN) or after ``max_pivots``
    pivots in all.  For a positive semidefinite Q the pivots end on a
    solution whenever one exists (in exact arithmetic).
    """
    q = np.asarray(q, dtype=float)
    Q = np.asarray(Q, dtype=float)
    N = q.size
    sq, sQ = np.abs(q).max(initial=0.0), np.abs(Q).max(initial=0.0) or 1.0
    if q.min(initial=0.0) >= -1e-12 * sq:
        return np.zeros(N), 0
    # the tableau [B^-1 A | B^-1 q] over the columns (w, z, z0)
    A = np.zeros((N, 2 * N + 2))
    A.reshape(-1)[::2 * N + 3] = 1.0
    np.divide(Q, -sQ, out=A[:, N:2 * N])
    A[:, 2 * N] = -1.0
    np.divide(q, sq, out=A[:, -1])
    # a run that finds no z, or a z whose w = q + Qz dips below its
    # tolerance, hands on to the next; the last z found is kept
    z, pivots = None, 0
    for dtype, tol in _RUNS:
        zx, k = _pivot(A.astype(dtype), max_pivots - pivots, tol)
        z, pivots = z if zx is None else zx, pivots + k
        if pivots == max_pivots or zx is not None and (
                A[:, -1] - A[:, N:2 * N] @ zx).min() >= -tol:
            break
    return None if z is None else z * (sq / sQ), pivots


# lemke's runs: (precision, rounding tolerance 1e4 eps), double's eps
# twice and then long double's
_RUNS = tuple((dtype, float(1e4 * np.finfo(eps).eps)) for dtype, eps in (
    (np.float64, np.float64), (np.longdouble, np.float64),
    (np.longdouble, np.longdouble)))


def linprog(c: np.ndarray, A_eq: np.ndarray, b_eq: np.ndarray
            ) -> tuple[np.ndarray | None, np.ndarray | None, bool]:
    """min c'lam subject to A lam = b, lam >= 0, with A = ``A_eq`` and
    b = ``b_eq``, by ``lemke`` on its optimality conditions.

    lam >= 0, c - A'u >= 0 complementary to lam and A lam = b are the
    LCP in z = (lam, u+, u-) with Q = [[0, -A', A'], [A, 0, 0],
    [-A, 0, 0]] and q = (c, -b, b): Q is skew-symmetric, so positive
    semidefinite, and the pivots end on a solution whenever the LP has
    one.  The equality rows come as opposite pairs, so every basis is
    degenerate; Harris's band in ``_ratio_test`` takes them.  The
    pivots run on the rows and columns of A each scaled to unit size,
    and on b and c each scaled to unit size apart (scaling c scales u
    alone, scaling b lam alone), so that data of scales far apart keep
    their digits.

    Returns (lam, u, certified) with the dual u = u+ - u-; (None, None,
    False) when the pivots find no z (an infeasible or unbounded LP) or
    the data are not finite.  ``certified`` is true when the primal
    residual max |A lam - b| is within tol P, the dual infeasibility
    max (A'u - c)+ within tol D and the duality gap |c'lam - b'u| within
    tol (sum(lam) D + sum(|u|) P), the scales at which they round, with
    P = max |A| sum(lam) + max |b|, D = max |c| + max |A| sum(|u|) and
    tol = 1e4 eps (the gap is lam'(c - A'u) + u'(A lam - b)).  lam is
    then optimal to that tolerance and c'lam its value.  For c = 0 the
    dual is u = 0, so a feasible lam is certified by its residual alone.
    """
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A_eq, b_eq))
    if not all(np.all(np.isfinite(v)) for v in (c, A, b)):
        return None, None, False
    # pivot on D_r A D_c, D_r b / beta and D_c c / alpha: lam = beta D_c
    # lam' and u = alpha D_r u'
    r = 1.0 / _unit(np.abs(A).max(axis=1, initial=0.0))
    col = 1.0 / _unit(np.abs(A * r[:, None]).max(axis=0, initial=0.0))
    As, bs, cs = A * r[:, None] * col, r * b, col * c
    beta = _unit(np.abs(bs).max(initial=0.0))
    alpha = _unit(np.abs(cs).max(initial=0.0))
    k, m = A.shape
    Q = np.zeros((m + 2 * k, m + 2 * k))
    Q[:m, m:m + k], Q[:m, m + k:] = -As.T, As.T
    Q[m:m + k, :m], Q[m + k:, :m] = As, -As
    z, _ = lemke(Q, np.concatenate([cs / alpha, -bs / beta, bs / beta]))
    if z is None:
        return None, None, False
    lam, u = beta * col * z[:m], alpha * r * (z[m:m + k] - z[m + k:])
    if not c.any():  # the pivots' u is rounding on no scale c sets
        u = np.zeros(k)
    tol = 1e4 * np.finfo(float).eps
    sA = np.abs(A).max(initial=0.0)
    primal = sA * lam.sum() + np.abs(b).max(initial=0.0)
    dual = np.abs(c).max(initial=0.0) + sA * np.abs(u).sum()
    certified = (
        np.abs(A @ lam - b).max(initial=0.0) <= tol * primal
        and (A.T @ u - c).max(initial=0.0) <= tol * dual
        and abs(c @ lam - b @ u) <= tol * (lam.sum() * dual
                                           + np.abs(u).sum() * primal))
    return lam, u, bool(certified)


def _unit(s: np.ndarray) -> np.ndarray:
    """``s`` with its zeros read as ones: the scale of an all-zero row,
    column or vector, which no scaling changes."""
    return np.where(s > 0.0, s, 1.0)


def _pivot(T: np.ndarray, max_pivots: int, tol: float
           ) -> tuple[np.ndarray | None, int]:
    """Lemke's pivots on the tableau T of ``lemke``, in T's precision
    with rounding tolerance ``tol``: (z, pivots), z None on a ray, on a
    basis met before (exact pivots never repeat one, so rounding has
    made them cycle), on a NaN in the basic values or the entering
    column, or after ``max_pivots`` pivots."""
    N = len(T)
    b = T[:, -1]
    basis = list(range(N))
    # the basic columns as the bits of an int, and the sets met before
    basic = (1 << N) - 1
    seen = set()
    # the rank-1 update's product, written in place on each pivot
    prod = np.empty_like(T)
    # z0 enters at the lexicographically smallest row of (b, B^-1), and
    # stays in that row until it leaves.  B^-1 = I here, and _lex_min's
    # column e_k (with d = 1) drops row k from the rows tied in b while
    # two are left: the row is the last of those ties
    enter = 2 * N
    bl = b.tolist()
    if _has_nan(bl):
        return None, 0
    low, band = min(bl), tol * max(map(abs, bl))
    r = r0 = max(i for i, v in enumerate(bl) if v - low <= band)
    for pivots in range(1, max_pivots + 1):
        d = T[:, enter].copy()
        T[r] /= d[r]
        d[r] = 0.0
        T -= np.multiply(d[:, None], T[r], out=prod)
        leave, basis[r] = basis[r], enter
        if leave == 2 * N:
            # z in double, whatever the tableau's precision
            value = dict(zip(basis, b.tolist()))
            return np.maximum([float(value.get(j, 0.0))
                               for j in range(N, 2 * N)], 0.0), pivots
        basic ^= (1 << leave) | (1 << enter)
        if basic in seen:
            return None, pivots
        seen.add(basic)
        enter = leave + N if leave < N else leave - N
        r = _ratio_test(b, T, T[:, enter], r0, tol)
        if r is None:
            return None, pivots
    return None, max_pivots


def _ratio_test(b: np.ndarray, T: np.ndarray, d: np.ndarray, r0: int,
                tol: float) -> int | None:
    """The leaving row for the entering column d, None on a ray or on a
    NaN in b or d; ``tol`` is the rounding tolerance, relative to the
    largest entry.  The step is the least (b_i + 10 tol)/d_i over the
    rows with d_i > tol max d, clipped at 0, so that no basic value
    falls more than 10 tol below 0 (P. M. J. Harris, "Pivot selection
    methods of the Devex LP code", Math. Programming 5 (1973) 1-28).
    z0's row r0 leaves, ending the pivots, where the step takes its
    value to 0 within tol max |b|; else, of the rows whose ratio
    b_i/d_i is within the step, the lexicographic minimum of those with
    a pivot of at least a tenth of the largest.  It runs on the entries
    of b and d as scalars of T's precision, and calls ``_lex_min`` only
    on a tie."""
    bl, dl = b.tolist(), d.tolist()
    if _has_nan(bl) or _has_nan(dl):
        return None
    floor, slack = tol * max(max(dl), -min(dl)), 10 * tol
    rows, step = [], math.inf
    for i, di in enumerate(dl):
        if di > floor:
            rows.append(i)
            h = (bl[i] + slack) / di
            if h < step:
                step = h
    if not rows:
        return None
    step = max(step, 0.0)
    if dl[r0] > floor and (bl[r0] - step * dl[r0]
                           <= tol * max(max(bl), -min(bl))):
        return r0
    # the row of the least (b_i + 10 tol)/d_i is always within the step
    rows = [i for i in rows if bl[i] / dl[i] <= step]
    if len(rows) > 1:
        big = 0.1 * max([dl[i] for i in rows])
        rows = [i for i in rows if dl[i] >= big]
    if len(rows) == 1:
        return rows[0]
    return _lex_min(b, T, np.array(rows), d, tol)


def _has_nan(values: list) -> bool:
    """Whether ``values`` holds a NaN.  Its sum is NaN if it does, and
    may be on an overflow (inf - inf); the sum of |v| only if it does."""
    return math.isnan(sum(values)) and math.isnan(sum(map(abs, values)))


def _lex_min(b: np.ndarray, T: np.ndarray, rows: np.ndarray,
             d: np.ndarray, tol: float) -> int:
    """The row i among ``rows`` with the lexicographically smallest
    (b_i, B^-1_i)/d_i, B^-1 being the first len(b) columns of T.  In
    each column v a row ties with the least ratio m where v_i - m d_i,
    its entry after the pivot, is within tol max |v| of zero, so that
    rounding breaks no tie."""
    if rows.size == 1:
        return int(rows[0])
    for k in range(-1, len(b)):
        v = b if k < 0 else T[:, k]
        m = (v[rows] / d[rows]).min()
        rows = rows[v[rows] - m * d[rows] <= tol * np.abs(v).max()]
        if rows.size == 1:
            break
    return int(rows[0])


def subgradient_descent(
    objective: Callable[[np.ndarray], float],
    subgrad: Callable[[np.ndarray], np.ndarray],
    starts: list[np.ndarray],
    step_scale: float = 1.0,
    max_steps: int = 2000,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, float, int]:
    """Multi-start projected subgradient method with step c/sqrt(k).

    Tracks the best iterate seen across all restarts.  Returns
    (best_point, best_value, total_steps).  Upper bound only: the method
    carries no optimality certificate.
    """
    best_x: np.ndarray | None = None
    best_f = np.inf
    total = 0
    for x0 in starts:
        x = np.asarray(x0, dtype=float).copy()
        if project is not None:
            x = project(x)
        f = objective(x)
        if f < best_f:
            best_f, best_x = f, x.copy()
        for k in range(1, max_steps + 1):
            g = subgrad(x)
            gn = np.linalg.norm(g)
            total += 1
            if gn < 1e-15:
                break
            x = x - (step_scale / np.sqrt(k)) * g / gn
            if project is not None:
                x = project(x)
            f = objective(x)
            if f < best_f:
                best_f, best_x = f, x.copy()
    assert best_x is not None
    return best_x, best_f, total
