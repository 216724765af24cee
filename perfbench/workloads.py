"""Seeded operations and their output checks for the benchmark workloads.

An operation is one call into a public entry point of monotone_lab:
``cli.main`` with an argument list, or a library function where the CLI
has no path. The program sees only the generated scenario JSON and
arguments. Every operation carries a check against a reference computed
here with closed forms in plain numpy, or against invariants where no
closed form exists. Nothing in this file imports monotone_lab.

Rounds are the unit of generation: round ``r`` of a workload draws all of
its numbers from ``default_rng([seed, r])`` and holds one operation of
every slot in the workload's mix, so the mix is the same for every seed.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

WORKLOADS = ("classify-windows", "linear-gap-l1", "cli-mix")

TOL = 1e-7


class CheckFailed(Exception):
    """An output disagrees with its reference or breaks an invariant: a
    wrong answer."""


class Inconclusive(Exception):
    """Every statement in the output is true, but the operation did not
    reach the verdict it is for: a failed operation, not a wrong one."""


def need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    """One benchmark operation.

    ``argv`` goes to ``cli.main``; ``scenario`` (when set) is written to a
    file in set-up and its path replaces the ``{scenario}`` placeholder.
    ``call(lab)`` is a library call used where the CLI has no path.
    ``check`` receives the parsed report (or the library result) and
    raises CheckFailed. ``zero_gap`` marks gap outputs whose true value is
    0, so every reported value is the error of an upper bound.
    """

    label: str
    check: Callable[[Any], None]
    argv: Optional[list[str]] = None
    scenario: Optional[dict] = None
    call: Optional[Callable[[Any], Any]] = None
    zero_gap: bool = False


# ---------------------------------------------------------------------------
# closed-form references


def vnorm(v: np.ndarray, tag: str) -> float:
    v = np.asarray(v, float)
    if tag == "l1":
        return float(np.abs(v).sum())
    if tag == "linf":
        return float(np.abs(v).max())
    return float(np.sqrt(v @ v))


DUAL = {"l1": "linf", "linf": "l1", "l2": "l2"}


def r_value(norm: str, x, xs, s, ss) -> float:
    """The gap objective at graph point (s, s*) for probe (x, x*)."""
    a = np.asarray(s, float) - np.asarray(x, float)
    b = np.asarray(ss, float) - np.asarray(xs, float)
    na, nb = vnorm(a, norm), vnorm(b, DUAL[norm])
    return 0.5 * na * na + 0.5 * nb * nb + float(a @ b)


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


class Model:
    """A maximal monotone operator with a closed-form graph and resolvent."""

    desc: dict
    dim: int

    def member(self, x, xs, tol: float = TOL) -> bool:
        raise NotImplementedError

    def resolvent(self, z) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class BoxCone(Model):
    """Normal cone of the box [lo, hi] (the subdifferential of its
    indicator), coordinate by coordinate."""

    def __init__(self, lo, hi, desc):
        self.lo, self.hi = np.asarray(lo, float), np.asarray(hi, float)
        self.dim, self.desc = self.lo.size, desc

    def member(self, x, xs, tol=TOL):
        for xi, si, lo, hi in zip(x, xs, self.lo, self.hi):
            if xi < lo - tol or xi > hi + tol:
                return False
            if abs(xi - hi) <= tol:
                if si < -tol:
                    return False
            elif abs(xi - lo) <= tol:
                if si > tol:
                    return False
            elif abs(si) > tol:
                return False
        return True

    def resolvent(self, z):
        s = np.clip(z, self.lo, self.hi)
        return s, z - s


class BoxSupport(Model):
    """Subdifferential of the support function of the box [lo, hi];
    with lo = -1, hi = 1 it is the subdifferential of the l1 norm."""

    def __init__(self, lo, hi, desc):
        self.lo, self.hi = np.asarray(lo, float), np.asarray(hi, float)
        self.dim, self.desc = self.lo.size, desc

    def member(self, x, xs, tol=TOL):
        for xi, si, lo, hi in zip(x, xs, self.lo, self.hi):
            if xi > tol:
                ok = abs(si - hi) <= tol
            elif xi < -tol:
                ok = abs(si - lo) <= tol
            else:
                ok = lo - tol <= si <= hi + tol
            if not ok:
                return False
        return True

    def resolvent(self, z):
        ss = np.clip(z, self.lo, self.hi)
        return z - ss, ss


class HalfSq(Model):
    def __init__(self, dim):
        self.dim, self.desc = dim, {"subdiff": {"half_sq": {"dim": dim}}}

    def member(self, x, xs, tol=TOL):
        return bool(np.all(np.abs(np.asarray(xs) - np.asarray(x)) <= tol))

    def resolvent(self, z):
        return z / 2.0, z / 2.0


class LinearMap(Model):
    def __init__(self, M):
        self.M = np.asarray(M, float)
        self.dim, self.desc = self.M.shape[0], {"linear": self.M.tolist()}

    def member(self, x, xs, tol=TOL):
        return vnorm(self.M @ np.asarray(x) - np.asarray(xs), "l2") <= tol

    def resolvent(self, z):
        s = np.linalg.solve(np.eye(self.dim) + self.M, z)
        return s, self.M @ s


class AbsOnInterval(Model):
    """Subdifferential of |x| + indicator of [-1, 1] in one dimension."""

    dim = 1
    desc = {"subdiff": {"sum": [{"norm": {"dim": 1}},
                                {"indicator": {"polytope": [[-1.0], [1.0]]}}]}}

    def member(self, x, xs, tol=TOL):
        x, s = float(x[0]), float(xs[0])
        if abs(x) > 1.0 + tol:
            return False
        if abs(x - 1.0) <= tol:
            return s >= 1.0 - tol
        if abs(x + 1.0) <= tol:
            return s <= -1.0 + tol
        if abs(x) <= tol:
            return abs(s) <= 1.0 + tol
        return abs(s - np.sign(x)) <= tol

    def resolvent(self, z):
        s = np.clip(np.sign(z) * np.maximum(np.abs(z) - 1.0, 0.0), -1.0, 1.0)
        return s, z - s


def box_vertices(lo, hi) -> list[list[float]]:
    return [list(map(float, v)) for v in itertools.product(*zip(lo, hi))]


def unit_box(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return -np.ones(dim), np.ones(dim)


def indicator_of_box(dim: int) -> BoxCone:
    lo, hi = unit_box(dim)
    return BoxCone(lo, hi, {"subdiff": {"indicator": {
        "polytope": box_vertices(lo, hi)}}})


def normal_cone_of_box(dim: int) -> BoxCone:
    lo, hi = unit_box(dim)
    return BoxCone(lo, hi, {"normal_cone": {"polytope": box_vertices(lo, hi)}})


def support_of_box(dim: int) -> BoxSupport:
    lo, hi = unit_box(dim)
    return BoxSupport(lo, hi, {"subdiff": {"support": {
        "polytope": box_vertices(lo, hi)}}})


def norm_model(dim: int, kind: str) -> BoxSupport:
    """Subdifferential of the l1 norm, or of any norm in one dimension."""
    if dim > 1 and kind != "l1":
        raise ValueError("only the l1 norm is a box support in 2-D and up")
    lo, hi = unit_box(dim)
    return BoxSupport(lo, hi, {"subdiff": {"norm": {"dim": dim,
                                                     "kind": kind}}})


# ---------------------------------------------------------------------------
# strict reports


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_report(text: str) -> dict:
    """Parses a report as strict JSON: Infinity and NaN are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def task_records(report: dict, count: int = 1) -> list[list[dict]]:
    tasks = report.get("tasks")
    need(isinstance(tasks, list) and len(tasks) == count,
         f"report has {len(tasks or [])} tasks, expected {count}")
    out = []
    for t in tasks:
        need(t.get("status") == "ok", f"task status {t.get('status')!r}: "
             f"{t.get('error', '')}")
        out.append(t["records"])
    return out


def only_record(report: dict) -> dict:
    recs = task_records(report)[0]
    need(len(recs) == 1, f"{len(recs)} records, expected 1")
    return recs[0]


def vec(v) -> np.ndarray:
    return np.asarray(v, float).ravel()


def J(obj) -> str:
    return json.dumps(obj)


def scenario(dim: int, norm: str, operators: dict, tasks: list) -> dict:
    return {"schema": 1, "space": {"dim": dim, "norm": norm},
            "operators": operators, "tasks": tasks}


def task_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# classify-windows


LAYOUT_SEED = 20161208
JITTER = 0.1


def graph_probe(model: Model, rng: np.random.Generator, on: bool,
                slot: str):
    """(w, w*) on the graph, or at least 0.05 off it in every reading.

    The point is a fixed base for the slot plus seeded jitter: op costs
    depend strongly on where a probe sits, so every seed probes the same
    neighbourhoods and a run's cost does not swing with the seed.
    """
    base = np.random.default_rng([LAYOUT_SEED, zlib.crc32(slot.encode())])
    dim = model.dim
    while True:
        z0 = base.uniform(-2.5, 2.5, size=dim)
        d0 = base.uniform(0.2, 0.6, size=dim) * base.choice([-1, 1], dim)
        w, ws = model.resolvent(z0)
        if on or not model.member(w, ws + d0, tol=0.15):
            break
    while True:
        w, ws = model.resolvent(z0 + rng.uniform(-JITTER, JITTER, size=dim))
        if on:
            return w, ws
        d = d0 + rng.uniform(-JITTER / 2, JITTER / 2, size=dim)
        if not model.member(w, ws + d, tol=0.05):
            return w, ws + d


def window_desc(kind: str, center: np.ndarray, side: str) -> dict:
    if kind in ("interval", "box"):
        return {"polytope": box_vertices(center - 1.0, center + 1.0),
                "side": side}
    return {"ball": {"center": center.tolist(), "radius": 1.0}, "side": side}


def windowed_op(name: str, model: Model, cls: str, window: str, rng,
                budget: int, on: bool) -> Op:
    w, ws = graph_probe(model, rng, on, f"{cls}.{name}.{window}.{on}")
    anchor = w if cls == "fpv" else ws
    task = {"kind": "classify", "operator": "S", "class": cls,
            "seed": task_seed(rng), "budget": budget, "w": w.tolist(),
            "wstar": ws.tolist(),
            "window": window_desc(window, anchor,
                                  "primal" if cls == "fpv" else "dual")}
    expected = "in" if model.member(w, ws) else "out"

    def check(report):
        rec = only_record(report)
        need(rec["conclusion"] == expected,
             f"conclusion {rec['conclusion']!r}, closed form says "
             f"{expected!r}")
        conflict = rec["premise_holds"] and rec["conclusion"] == "out"
        need(rec["consistent"] is not conflict,
             "consistency flag disagrees with premise and conclusion")
        if conflict:
            # the premise is sampled: "holds" means no counterexample was
            # sampled, so the conflict is a miss of the window probes
            raise Inconclusive("premise holds but conclusion is out")

    return Op(f"{cls}.{name}.{window}.{expected}", check,
              argv=["run", "{scenario}"],
              scenario=scenario(model.dim, "l2", {"S": model.desc}, [task]))


CW_BUDGET = 100
SKEWED = np.array([[1.0, 1.0], [-1.0, 1.0]])


def classify_windows_round(rng: np.random.Generator, r: int) -> list[Op]:
    slots = [(name, model, cls, "interval")
             for name, model in (("abs", norm_model(1, "l2")),
                                 ("sq", HalfSq(1)),
                                 ("cone", normal_cone_of_box(1)),
                                 ("lin", LinearMap([[2.0]])))
             for cls in ("fpv", "fp")]
    slots += [("cone2", normal_cone_of_box(2), "fpv", "box"),
              ("cone2", normal_cone_of_box(2), "fp", "box"),
              ("lin2", LinearMap(SKEWED), "fpv", "box"),
              ("lin2", LinearMap(SKEWED), "fp", "box"),
              ("sq2", HalfSq(2), "fpv", "ball"),
              ("l1norm2", norm_model(2, "l1"), "fp", "ball"),
              ("lin2", LinearMap(SKEWED), "fpv", "ball"),
              ("sq2", HalfSq(2), "fp", "ball")]
    # on- and off-graph probes alternate, so every pair of rounds has
    # each slot once of each kind
    return [windowed_op(name, model, cls, window, rng, CW_BUDGET,
                        on=(i + r) % 2 == 0)
            for i, (name, model, cls, window) in enumerate(slots)]


# ---------------------------------------------------------------------------
# linear-gap-l1


TAIL_STEP_CAP = 3000
LINEAR_GAP_BUDGET = 24


def tail_matrix(n: int) -> np.ndarray:
    return np.triu(np.ones((n, n)))


def tail_op(n: int, rng) -> Op:
    task = {"kind": "tail_experiment", "n_list": [n], "seed": task_seed(rng),
            "step_cap": TAIL_STEP_CAP}
    M = tail_matrix(n)

    def check(report):
        row = only_record(report)
        need(row["n"] == n, "row for the wrong n")
        bound = float(row["gap_bound"])
        need(bound >= -1e-12, f"negative gap bound {bound}")
        if n == 1:
            need(row["status"] == "exact" and abs(bound) <= 1e-12,
                 "n = 1 is a perfect square with gap 0")
        else:
            need(row["status"] == "upper_bound", "n >= 2 must be a bound")
            need(row["steps"] > 0 and row["restarts"] > 0, "no descent ran")
            s, ss = vec(row["witness"]["x"]), vec(row["witness"]["xstar"])
            need(vnorm(M @ s - ss, "l2") <= 1e-9 * (1 + vnorm(ss, "l2")),
                 "witness is off the graph")
            r = r_value("l1", np.zeros(n), np.ones(n), s, ss)
            need(close(bound, r), f"bound {bound} is not r at the witness "
                 f"({r})")

    return Op(f"tail.n{n}", check, argv=["run", "{scenario}"],
              scenario=scenario(1, "l1", {}, [task]), zero_gap=True)


def witness_probe(norm: str, M, rng):
    """A probe whose gap is 0, attained at a known graph point (s, Ms).

    On l1: x = s + a, x* = Ms - ||a||_1 sign(a) gives r = 0. On linf the
    dual construction: x* = Ms - b, x = s + ||b||_1 sign(b).
    """
    n = M.shape[0]
    s = rng.uniform(-1.0, 1.0, size=n)
    a = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    big = float(np.abs(a).sum()) * np.sign(a)
    if norm == "l1":
        return s, s + a, M @ s - big
    return s, s + big, M @ s - a


def linear_gap_op(norm: str, kind: str, n: int, rng) -> Op:
    if kind == "tail":
        M = tail_matrix(n)
    else:
        B = rng.normal(size=(n, n))
        K = rng.normal(size=(n, n))
        M = B @ B.T / n + 0.5 * (K - K.T)
    s, x, xs = witness_probe(norm, M, rng)
    if not close(r_value(norm, x, xs, s, M @ s), 0.0, abs_=1e-9):
        raise ValueError("witness probe is not at gap 0")
    task = {"kind": "gap", "operator": "M", "seed": task_seed(rng),
            "budget": LINEAR_GAP_BUDGET, "probes": [[x.tolist(), xs.tolist()]]}

    def check(report):
        rec = only_record(report)
        value = float(rec["value"])
        need(rec["status"] == "upper_bound", f"status {rec['status']!r}")
        need(value >= -1e-12, f"negative gap {value}")
        w, ws = vec(rec["witness"]["x"]), vec(rec["witness"]["xstar"])
        need(vnorm(M @ w - ws, "l2") <= 1e-9 * (1 + vnorm(ws, "l2")),
             "witness is off the graph")
        r = r_value(norm, x, xs, w, ws)
        need(close(value, r), f"value {value} is not r at the witness ({r})")

    return Op(f"gap.{norm}.{kind}.n{n}", check, argv=["run", "{scenario}"],
              scenario=scenario(n, norm, {"M": {"linear": M.tolist()}},
                                [task]), zero_gap=True)


def linear_gap_round(rng: np.random.Generator, r: int) -> list[Op]:
    ops = [tail_op(n, rng) for n in (1, 2, 4, 8, 16)]
    for norm in ("l1", "linf"):
        for kind, dims in (("tail", (4, 16)), ("psdskew", (2, 8))):
            ops.extend(linear_gap_op(norm, kind, n, rng) for n in dims)
    return ops


# ---------------------------------------------------------------------------
# cli-mix


def inline(cmd: str, dim: int, norm: str, *args: str) -> list[str]:
    return [cmd, "--space", J({"dim": dim, "norm": norm}), *args]


def euclidean_gap_op(model: Model, rng) -> Op:
    argv = inline("gap", model.dim, "l2", "--operator", J(model.desc),
                  "--seed", str(task_seed(rng)), "--count", "6")

    def check(report):
        recs = task_records(report)[0]
        need(len(recs) == 6, "wrong probe count")
        for rec in recs:
            value = float(rec["value"])
            w, ws = vec(rec["witness"]["x"]), vec(rec["witness"]["xstar"])
            need(rec["status"] == "exact", "resolvent gap must be exact")
            need(model.member(w, ws, tol=1e-6), "witness is off the graph")
            r = r_value("l2", rec["probe"]["x"], rec["probe"]["xstar"], w, ws)
            need(close(value, r), f"value {value} is not r at the witness")
            # maximal monotone on a Euclidean pair: the gap is 0 everywhere
            need(-1e-12 <= value <= 1e-9, f"gap {value} of a maximal "
                 "monotone operator")

    return Op(f"gap.resolvent.d{model.dim}", check, argv=argv)


def finite_graph_points(rng, n_pts: int, dim: int):
    """Points of the graph of x -> x + tanh(x) (monotone), coordinatewise."""
    xs = rng.uniform(-1.5, 1.5, size=(n_pts, dim))
    return [(x, x + np.tanh(x)) for x in xs]


def finite_gap_op(rng) -> Op:
    pts = finite_graph_points(rng, 6, 2)
    probes = [rng.uniform(-2, 2, size=(2, 2)).tolist() for _ in range(3)]
    desc = {"graph": [[p[0].tolist(), p[1].tolist()] for p in pts]}
    argv = inline("gap", 2, "l1", "--operator", J(desc), "--probes",
                  J(probes), "--seed", str(task_seed(rng)))

    def check(report):
        recs = task_records(report)[0]
        need(len(recs) == len(probes), "wrong probe count")
        for rec, (x, xs) in zip(recs, probes):
            best = min(r_value("l1", x, xs, s, ss) for s, ss in pts)
            need(rec["status"] == "exact", "enumeration must be exact")
            need(close(float(rec["value"]), best), f"gap {rec['value']} but "
                 f"enumeration gives {best}")

    return Op("gap.finite", check, argv=argv)


def fuzz_gap_op(norm: str, rng) -> Op:
    """Dual-fuzz gap of |x| in one dimension; on the l1 pair the distance
    to the fuzz ball runs the projected descent of sets.dist."""
    model = norm_model(1, "l2")
    c = float(rng.uniform(-0.6, 0.6))
    rho = float(rng.uniform(0.1, 0.3))
    x = float(rng.uniform(-1.5, 1.5))
    if norm == "l2":
        fuzz = {"polytope": [[c - rho], [c + rho]]}
        budget = "40"
    else:
        fuzz = {"ball": {"center": [c], "radius": rho, "norm": "l2"}}
        budget = "4"
    argv = inline("gap", 1, norm, "--operator", J(model.desc), "--probes",
                  J([[[x], [0.0]]]), "--task", J({"dual_fuzz": fuzz}),
                  "--budget", budget, "--seed", str(task_seed(rng)))

    def check(report):
        rec = only_record(report)
        s = float(rec["witness"]["x"][0])
        ss = float(rec["witness"]["xstar"][0])
        need(model.member([s], [ss], tol=1e-6), "witness is off the graph")
        # in one dimension every norm is |.|, so the objective is closed form
        d = max(0.0, abs(ss - c) - rho)
        exact = (0.5 * (s - x) ** 2 + 0.5 * d * d + (s - x) * ss
                 + c * (x - s) + rho * abs(x - s))
        value = float(rec["value"])
        need(value >= -1e-12, f"negative fuzzy gap {value}")
        need(close(value, exact, rel=1e-7, abs_=1e-9),
             f"value {value}, objective at the witness {exact}")

    return Op(f"gap.fuzz.{norm}", check, argv=argv)


FITZ_BUDGET = "60"


def fitz_op(model: Model, name: str, rng, on: bool) -> Op:
    # (y*, y**) reads a graph point (s, s*) as (s*, s); off-graph points
    # are moved in the dual slot
    s, ss = graph_probe(model, rng, on, f"fitz.{name}.{on}")
    ystar, ystarstar, inside = ss, s, model.member(s, ss)
    argv = inline("fitz", model.dim, "l2", "--operator", J(model.desc),
                  "--points", J([[ystar.tolist(), ystarstar.tolist()]]),
                  "--budget", FITZ_BUDGET, "--seed", str(task_seed(rng)))
    pairing = float(ystar @ ystarstar)

    def check(report):
        rec = only_record(report)
        # extension membership of (y*, y**) is y* in S(y**) for maximal S
        expected = "in" if inside else "out"
        need(rec["membership"] == expected,
             f"membership {rec['membership']!r}, closed form {expected!r}")
        # Fitzpatrick inequality for maximal monotone S, in both readings
        need(float(rec["phi"]) >= pairing - 1e-9, "phi below the pairing")
        need(float(rec["theta"]) >= pairing - 1e-9, "theta below the pairing")

    return Op(f"fitz.{name}", check, argv=argv)


def skew_fitz_op(rng) -> Op:
    """The Fitzpatrick function of the skew map is +inf off the graph;
    the report must still be strict JSON."""
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = rng.uniform(-1.0, 1.0, size=2)
    ystar, ystarstar = M @ x, x
    argv = inline("fitz", 2, "l2", "--operator", J({"linear": M.tolist()}),
                  "--points", J([[ystar.tolist(), ystarstar.tolist()]]),
                  "--seed", str(task_seed(rng)))

    def check(report):
        rec = only_record(report)
        need(rec["membership"] == "in", "a graph point of a linear map")

    return Op("fitz.skew", check, argv=argv)


def strongmax_op(rng) -> Op:
    # |x| at w = 0 meets every w* in [-1, 1], so the search must succeed
    a = float(rng.uniform(-1.0, 0.8))
    Wt = (a, a + 0.2)
    task = {"w": [0.0], "fuzz": {"polytope": [[Wt[0]], [Wt[1]]]}}
    model = norm_model(1, "l2")
    argv = inline("classify", 1, "l2", "--operator", J(model.desc),
                  "--class", "strongmax", "--task", J(task),
                  "--seed", str(task_seed(rng)))

    def check(report):
        rec = only_record(report)
        need(rec["premise_holds"] and rec["status"] == "found",
             f"strong maximality search status {rec['status']!r}")
        need(float(rec["residual"]) <= 1e-6, "residual above 1e-6")
        ss = float(rec["point"]["xstar"][0])
        need(Wt[0] - 1e-9 <= ss <= Wt[1] + 1e-9, "found w* outside the fuzz")
        need(model.member(rec["point"]["x"], [ss], tol=1e-6),
             "found point is off the graph")

    return Op("classify.strongmax", check, argv=argv)


def ni_op(rng) -> Op:
    model = norm_model(1, "l2")
    task = {"wstar": [float(rng.uniform(-2, 2))],
            "wstarstar": [float(rng.uniform(-2, 2))]}
    argv = inline("classify", 1, "l2", "--operator", J(model.desc),
                  "--class", "ni", "--task", J(task),
                  "--seed", str(task_seed(rng)))

    def check(report):
        rec = only_record(report)
        # maximal monotone operators are of type NI, and the resolvent
        # candidate makes the reported estimate nonpositive
        need(float(rec["infimum"]) <= 1e-9 and rec["nonpositive"],
             f"infimum {rec['infimum']} above 0")

    return Op("classify.ni", check, argv=argv)


def br_op(mode: str, rng) -> Op:
    dim = 1 if mode != "corollary" else 2
    if mode in ("point", "witness"):
        model, fn = HalfSq(dim), {"half_sq": {"dim": dim}}
    else:
        model = norm_model(dim, "l1")
        fn = {"norm": {"dim": dim, "kind": "l1"}}
    if mode == "point":
        u = float(rng.uniform(-0.3, 0.3))
        task = {"u": [u], "alpha": 1.0, "beta": float(rng.uniform(0.3, 1.0))}
    elif mode == "corollary":
        task = {"beta": float(rng.uniform(0.05, 0.5))}
    elif mode == "van":
        task = {"eps": float(rng.uniform(0.005, 0.05))}
    else:
        task = {"x": [float(rng.uniform(-2, 2))],
                "xstar": [float(rng.uniform(-2, 2))],
                "eps": float(rng.uniform(0.005, 0.05))}
    argv = ["br", "--mode", mode, "--fn", J(fn), "--task", J(task)]
    if dim != 1:
        argv[1:1] = ["--space", J({"dim": dim, "norm": "l2"})]

    def check(report):
        rec = only_record(report)
        if mode in ("point", "corollary"):
            need(rec["ok"] is True and rec["membership"] != "no",
                 "certificate not ok")
            need(min(rec["certs"].values()) >= -1e-7,
                 f"certificate slack below -1e-7: {rec['certs']}")
            need(model.member(rec["s"], rec["xstar"], tol=1e-6),
                 "(s, x*) is off the subdifferential graph")
            return
        s, ss = vec(rec["point"]["x"]), vec(rec["point"]["xstar"])
        need(model.member(s, ss, tol=1e-6), "point is off the graph")
        if mode == "van":
            q = 0.5 * s @ s + s @ ss + 0.5 * ss @ ss
        else:
            d = (s - vec(task["x"])) + (ss - vec(task["xstar"]))
            q = 0.5 * d @ d
        need(q < task["eps"], f"quantity {q} not below eps {task['eps']}")

    return Op(f"br.{mode}", check, argv=argv)


def sum_test_op(mode: str, rng) -> Op:
    ops = {"abs": norm_model(1, "l2").desc, "sq": HalfSq(1).desc,
           "cone": normal_cone_of_box(1).desc}
    S, T = ("abs", "cone") if mode == "domain" else ("abs", "sq")
    task = {"kind": "sum_test", "S": S, "T": T, "mode": mode,
            "probes": 8, "seed": task_seed(rng)}

    def check(report):
        rec = only_record(report)
        if rec["status"] == "skipped":
            # the interior witness is searched on a sample
            raise Inconclusive(f"sum test skipped: {rec.get('reason')}")
        need(rec["status"] == "ok", f"sum test status {rec['status']!r}")
        need(rec["errors"] == 0 and rec["failed"] == 0
             and rec["passed"] == rec["probes"],
             "a sum of maximal monotone operators with an interior witness "
             "is maximal, so every probe gap is 0")
        need(float(rec["worst_gap"]) <= float(rec["eta"]), "worst gap > eta")

    return Op(f"sum_test.{mode}", check, argv=["run", "{scenario}"],
              scenario=scenario(1, "l2", ops, [task]))


def lp_reference(pts, ystar: float, ystarstar: float) -> float:
    """min sum lam_i <s_i, s_i*> over simplex weights reproducing
    (y*, y**), by enumerating the basic solutions (at most 3 nonzero
    weights for the 3 equality rows in one dimension)."""
    best = np.inf
    rhs = np.array([ystar, ystarstar, 1.0])
    for k in (1, 2, 3):
        for idx in itertools.combinations(range(len(pts)), k):
            A = np.array([[pts[i][1][0] for i in idx],
                          [pts[i][0][0] for i in idx], [1.0] * k])
            lam, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            if np.all(lam >= -1e-12) and np.allclose(A @ lam, rhs,
                                                      atol=1e-10):
                cost = sum(l * pts[i][0][0] * pts[i][1][0]
                           for l, i in zip(lam, idx))
                best = min(best, float(cost))
    return best


def phi_conj_op(rng) -> Op:
    pts = finite_graph_points(rng, 7, 1)
    lam = rng.dirichlet(np.ones(len(pts)))
    ystar = float(sum(l * p[1][0] for l, p in zip(lam, pts)))
    ystarstar = float(sum(l * p[0][0] for l, p in zip(lam, pts)))

    def call(lab):
        S = lab.FiniteGraph(pair=lab.DualPair(1), points=tuple(
            lab.PairedPoint(p[0], p[1]) for p in pts))
        return lab.fitzpatrick.phi_conj(S, np.array([ystar]),
                                        np.array([ystarstar]))

    def check(res):
        ref = lp_reference(pts, ystar, ystarstar)
        need(res.status == "exact", f"status {res.status!r}")
        need(close(float(res.value), ref, rel=1e-7, abs_=1e-9),
             f"phi* = {res.value}, vertex enumeration gives {ref}")
        need(float(res.value) >= ystar * ystarstar - 1e-9,
             "phi* below the pairing")

    return Op("phi_conj.finite", check, call=call)


def cli_mix_round(rng: np.random.Generator, r: int) -> list[Op]:
    ops = [euclidean_gap_op(norm_model(1, "l2"), rng),
           euclidean_gap_op(norm_model(1, "l2"), rng),
           euclidean_gap_op(normal_cone_of_box(2), rng),
           finite_gap_op(rng), finite_gap_op(rng),
           fuzz_gap_op("l2", rng), fuzz_gap_op("l1", rng)]
    for i, (name, model) in enumerate((
            ("indicator.interval", indicator_of_box(1)),
            ("indicator.square", indicator_of_box(2)),
            ("indicator.cube", indicator_of_box(3)),
            ("support.interval", support_of_box(1)),
            ("support.square", support_of_box(2)),
            ("support.cube", support_of_box(3)),
            ("sum", AbsOnInterval()))):
        ops.append(fitz_op(model, name, rng, on=(i + r) % 2 == 0))
    ops += [strongmax_op(rng), strongmax_op(rng), ni_op(rng), ni_op(rng)]
    ops += [br_op(mode, rng) for mode in ("point", "corollary", "van",
                                          "witness")]
    ops += [sum_test_op("domain", rng), sum_test_op("range", rng)]
    ops += [phi_conj_op(rng) for _ in range(3)]
    ops.append(skew_fitz_op(rng))
    return ops


ROUNDS = {
    "classify-windows": classify_windows_round,
    "linear-gap-l1": linear_gap_round,
    "cli-mix": cli_mix_round,
}


def make_rounds(workload: str, seed: int, count: int) -> list[list[Op]]:
    build = ROUNDS[workload]
    return [build(np.random.default_rng([seed, r]), r) for r in range(count)]
