"""Norm pairs, the duality pairing, and the product norm on E x E*.

A finite-dimensional real space carries one of the three classical norms
(l1, l2, linf); the dual space carries the paired norm (l1 <-> linf,
l2 <-> l2).  All scalars are float64; no tolerance is hidden here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

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


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``a @ b`` for each pair of rows of ``A`` and ``B`` (over their last
    axes, broadcast), equal to it bit for bit: every pair is a 1 x n by
    n x 1 matmul in one stack, the same kernel ``a @ b`` runs, while an
    axis reduction may sum the products in another order."""
    # [()] turns the 0-d result of two vectors into a scalar
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0][()]


def each_row(f: Callable[[np.ndarray], np.ndarray],
             v: np.ndarray) -> np.ndarray:
    """``f``, which maps a point (n,) to a point (n,), over the last axis
    of ``v``: of the point ``v``, or of each row of a stack in turn."""
    if v.ndim == 1:
        return f(v)
    return np.array([f(row) for row in v]).reshape(v.shape)


def first_min(v: np.ndarray) -> Optional[int]:
    """Index of the first smallest entry of ``v`` below +inf, NaN skipped,
    or None: the entry a scalar loop ``if v_i < best`` from best = inf
    keeps, where ``np.argmin`` would return a NaN."""
    low = np.min(v, initial=np.inf, where=~np.isnan(v))
    if not low < np.inf:
        return None
    return int(np.argmax(v == low))


def row_norms(V: np.ndarray, tag: NormTag) -> np.ndarray:
    """``vector_norm`` of each row of ``V`` (over its last axis), equal to
    it bit for bit; the l2 case is the square root of ``row_dots``, the
    reduction ``np.linalg.norm`` of one vector uses."""
    V = np.asarray(V, dtype=float)
    if tag is NormTag.L1:
        return np.sum(np.abs(V), axis=-1)
    if tag is NormTag.LINF:
        return np.max(np.abs(V), axis=-1, initial=0.0)
    return np.sqrt(row_dots(V, V))


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

    def check_rows(self, V: np.ndarray, name: str = "rows") -> np.ndarray:
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[1] != self.dim:
            raise ValueError(
                f"{name} has shape {V.shape}, expected (m, {self.dim})"
            )
        return V

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

    @classmethod
    def of_rows(cls, x: np.ndarray, xstar: np.ndarray) -> "PairedPoint":
        """(x, x*) from two float arrays of shape (n,), such as a row of a
        stack each; they are not checked again by ``__post_init__``."""
        out = object.__new__(cls)
        object.__setattr__(out, "x", x)
        object.__setattr__(out, "xstar", xstar)
        return out

    def swapped(self) -> "PairedPoint":
        """(x*, x), the point of the inverse graph."""
        return PairedPoint.of_rows(self.xstar, self.x)


def graph_norm(pair: DualPair, pt: PairedPoint) -> float:
    """sqrt(||x||^2 + ||x*||^2) with the pair's primal/dual norms."""
    nx = pair.norm(pt.x, "primal")
    ns = pair.norm(pt.xstar, "dual")
    return float(np.hypot(nx, ns))
