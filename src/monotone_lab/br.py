"""Constructive near-minimizer subgradient procedures.

br_point takes an approximate minimizer u of a convex h with
h(u) < inf h + alpha*beta and produces an exact subgradient pair
(s, x*) in G(dh) with h(s) <= h(u), ||s - u|| <= alpha, ||x*|| <= beta,
by one proximal step: with t = alpha/beta, s = prox_{th}(u) and
x* = (u - s)/t lie in G(dh) by prox optimality, and the subgradient
inequality at u gives h(s) + t||x*||^2 <= h(u), so the premise gives
||x*|| < beta and ||s - u|| = t||x*|| < alpha.  Where t < 1, x* carries
the rounding of s times 1/t; a step-1 prox at s + x*, which is s in
exact arithmetic, takes it out.  All three certificates are re-measured
on the output, never trusted from the construction.

van_point minimizes g + ||.||^2/2 to produce (s, s*) in G(dg) with
||s||^2/2 + <s, s*> + ||s*||^2/2 < eps; on the Euclidean pair that
quantity is ||s + s*||^2/2, so a slope bound beta with beta^2/2 < eps
suffices.  quasidense_witness shifts the construction through the
translate g := f(. + x) - <., x*> and certifies a gap value at (x, x*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import ConvexFn, HalfSqNorm, SumFn, Translate, minimize
from .spaces import PairedPoint


@dataclass(frozen=True)
class BRRequest:
    h: ConvexFn
    u: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).ravel())
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")


@dataclass(frozen=True)
class BRResult:
    s: np.ndarray
    xstar: np.ndarray
    # measured slacks: value >= 0 means the certificate holds
    slack_value: float  # h(u) - h(s)
    slack_dist: float  # alpha - ||s - u||
    slack_slope: float  # beta - ||x*||
    membership: str  # G(dh) membership, "yes" or "no"
    ok: bool

    @property
    def certs(self) -> dict[str, float]:
        return {
            "value": self.slack_value,
            "dist": self.slack_dist,
            "slope": self.slack_slope,
        }


_SLACK_TOL = -1e-7


def br_point(req: BRRequest) -> BRResult:
    """Exact subgradient pair certifying the near-minimizer u, by the
    prox step of the module docstring.

    Raises ValueError when the premise h(u) < inf h + alpha*beta is
    measurably violated against the best found infimum (which upper
    bounds the true one, so the rejection is sound).
    """
    h, u, alpha, beta = req.h, req.u, req.alpha, req.beta
    _, f_inf = minimize(h, x0=u)
    hu = h.eval(u)
    if not np.isfinite(hu):
        raise ValueError("u must lie in the domain of h")
    if hu >= f_inf + alpha * beta:
        raise ValueError(
            f"premise violated: h(u) = {hu:.6g} is not below "
            f"{f_inf:.6g} + {alpha * beta:.6g}"
        )
    t = alpha / beta
    s = h.prox_lam(u, t)
    xstar = (u - s) / t
    if t < 1.0:
        v = s + xstar
        s = h.prox_lam(v, 1.0)
        xstar = v - s
    return _measure(req, s, xstar)


def _measure(req: BRRequest, s: np.ndarray, xstar: np.ndarray) -> BRResult:
    h = req.h
    sv = h.eval(req.u) - h.eval(s)
    sd = req.alpha - float(np.linalg.norm(s - req.u))
    ss = req.beta - float(np.linalg.norm(xstar))
    member = h.subdiff_contains(s, xstar, tol=1e-7)
    ok = min(sv, sd, ss) >= _SLACK_TOL and member != "no"
    return BRResult(s, xstar, sv, sd, ss, member, ok)


def br_corollary(h: ConvexFn, beta: float) -> BRResult:
    """Finds u with h(u) close to inf h, then applies br_point with
    alpha = 1; the output satisfies h(s) <= inf h + beta and
    ||x*|| <= beta up to the measured slacks."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    u, _ = minimize(h)
    return br_point(BRRequest(h, u, 1.0, beta))


def van_point(g: ConvexFn, eps: float) -> PairedPoint:
    """(s, s*) in G(dg) with ||s||^2/2 + <s, s*> + ||s*||^2/2 < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    h = SumFn(g, HalfSqNorm(g.dim))
    # q = ||x*||^2/2 < beta^2/2 <= 0.8 eps, for x* = s + s* in dh(s)
    res = br_corollary(h, min(1.0, float(np.sqrt(1.6 * eps))))
    s = res.s
    sstar = res.xstar - s  # split x* in dg(s) + s
    q = float(0.5 * s @ s + s @ sstar + 0.5 * sstar @ sstar)
    if q >= eps:
        raise RuntimeError(
            f"could not reach quantity below {eps:.3g}; got {q:.3g}")
    return PairedPoint(s, sstar)


def quasidense_witness(
    f: ConvexFn, x: np.ndarray, xstar: np.ndarray, eps: float
) -> PairedPoint:
    """(s, s*) in G(df) whose gap objective at (x, x*) is below eps,
    built constructively (no resolvent) through the translate
    g := f(. + x) - <., x*>."""
    x = np.asarray(x, dtype=float).ravel()
    xstar = np.asarray(xstar, dtype=float).ravel()
    g = Translate(f, shift=x, tilt=xstar, offset=0.0)
    p = van_point(g, eps)
    return PairedPoint(p.x + x, p.xstar + xstar)
