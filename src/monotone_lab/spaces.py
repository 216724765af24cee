"""Norm pairs, the duality pairing, and the product norm on E x E*.

A finite-dimensional real space carries one of the three classical norms
(l1, l2, linf); the dual space carries the paired norm (l1 <-> linf,
l2 <-> l2).  All scalars are float64; no tolerance is hidden here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class NormTag(enum.Enum):
    """One of the three classical norms."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    def dual(self) -> "NormTag":
        """The paired norm tag (l1 <-> linf, l2 <-> l2)."""
        if self is NormTag.L1:
            return NormTag.LINF
        if self is NormTag.LINF:
            return NormTag.L1
        return NormTag.L2

    @classmethod
    def parse(cls, s: "str | NormTag") -> "NormTag":
        if isinstance(s, NormTag):
            return s
        return cls(str(s).lower())


def vector_norm(v: np.ndarray, tag: NormTag) -> float:
    """The l1 / l2 / linf norm of ``v``."""
    v = np.asarray(v, dtype=float)
    if tag is NormTag.L1:
        return float(np.sum(np.abs(v)))
    if tag is NormTag.LINF:
        return float(np.max(np.abs(v))) if v.size else 0.0
    return float(np.linalg.norm(v))


def row_norms(V: np.ndarray, tag: NormTag) -> np.ndarray:
    """``vector_norm`` of each row of ``V`` (over its last axis), equal to
    it bit for bit: the l2 case takes each row's dot product through a
    stacked matmul, the reduction ``np.linalg.norm`` of one vector uses,
    where ``np.linalg.norm(V, axis=-1)`` sums the squares in another
    order."""
    V = np.asarray(V, dtype=float)
    if tag is NormTag.L1:
        return np.sum(np.abs(V), axis=-1)
    if tag is NormTag.LINF:
        return np.max(np.abs(V), axis=-1, initial=0.0)
    return np.sqrt((V[..., None, :] @ V[..., :, None])[..., 0, 0])


def norm_subgradient(v: np.ndarray, tag: NormTag) -> np.ndarray:
    """One subgradient of ``v -> ||v||_tag`` at ``v`` (the duality map).

    At v = 0 returns 0, which is always a valid subgradient.
    Deterministic: for linf ties the smallest index wins.
    """
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        return np.zeros_like(v)
    if tag is NormTag.L1:
        return np.sign(v)
    if tag is NormTag.LINF:
        i = int(np.argmax(np.abs(v)))
        g = np.zeros_like(v)
        g[i] = np.sign(v[i])
        return g
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class DualPair:
    """A space E of dimension ``dim`` with its primal norm; the dual norm
    on E* is forced by the pairing."""

    dim: int
    primal_norm: NormTag = NormTag.L2
    dual_norm: NormTag = field(init=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        object.__setattr__(self, "dual_norm", self.primal_norm.dual())

    def check_dim(self, v: np.ndarray, name: str = "vector") -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        if v.shape != (self.dim,):
            raise ValueError(
                f"{name} has shape {v.shape}, expected ({self.dim},)"
            )
        return v

    def pairing(self, x: np.ndarray, xstar: np.ndarray) -> float:
        """The bilinear pairing <x, x*> = sum_i x_i x*_i."""
        x = self.check_dim(x, "x")
        xstar = self.check_dim(xstar, "xstar")
        return float(np.dot(x, xstar))

    def norm(self, v: np.ndarray, side: str = "primal") -> float:
        """Norm of ``v`` on the chosen side ('primal' or 'dual')."""
        v = self.check_dim(v)
        tag = self.primal_norm if side == "primal" else self.dual_norm
        return vector_norm(v, tag)


@dataclass(frozen=True)
class PairedPoint:
    """A point (x, x*) of E x E*."""

    x: np.ndarray
    xstar: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).ravel())
        object.__setattr__(
            self, "xstar", np.asarray(self.xstar, dtype=float).ravel()
        )
        if self.x.shape != self.xstar.shape:
            raise ValueError(
                f"components have shapes {self.x.shape} and {self.xstar.shape}"
            )

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.xstar

    def swapped(self) -> "PairedPoint":
        """(x*, x), the point of the inverse graph.  Both components are
        already checked, so ``__post_init__`` is not run again."""
        out = object.__new__(PairedPoint)
        object.__setattr__(out, "x", self.xstar)
        object.__setattr__(out, "xstar", self.x)
        return out


def pairing(pair: DualPair, x: np.ndarray, xstar: np.ndarray) -> float:
    return pair.pairing(x, xstar)


def norm(pair: DualPair, v: np.ndarray, side: str = "primal") -> float:
    return pair.norm(v, side)


def graph_norm(pair: DualPair, pt: PairedPoint) -> float:
    """sqrt(||x||^2 + ||x*||^2) with the pair's primal/dual norms."""
    nx = pair.norm(pt.x, "primal")
    ns = pair.norm(pt.xstar, "dual")
    return float(np.hypot(nx, ns))
