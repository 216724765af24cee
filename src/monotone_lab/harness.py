"""Scenario execution and report generation.

A scenario is a UTF-8 JSON file (top-level "schema": 1) declaring a
space, named operators, and a task list.  Tasks run in declaration
order; per-task failures are recorded and never abort the batch.  JSON
is the canonical report format, one line of strict JSON with sorted
keys, and its parsed report is reproducible under a fixed seed (timing
fields are excluded from comparisons); CSV is a lossy flat projection.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from . import br as br_mod
from . import classifiers as cls_mod
from . import fitzpatrick as fitz_mod
from . import quasidensity as qd_mod
from .functions import (
    Affine,
    ConvexFn,
    HalfSqNorm,
    IndicatorFn,
    NormFn,
    Quadratic,
    SupportFn,
    Translate,
    add_fns,
)
from .operators import (
    FiniteGraph,
    Linear,
    MonotoneOperator,
    NormalCone,
    ResolventError,
    Shift,
    Subdifferential,
    SupportSubdiff,
    add,
    inverse,
    parallel_sum,
    tail_operator,
)
from .sets import Ball, Capsule, CompactConvexSet, Polytope
from .spaces import DualPair, NormTag, PairedPoint, row_norms

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Parse or configuration error in a scenario file."""


# ---------------------------------------------------------------------------
# descriptor parsing


def parse_space(desc: dict) -> DualPair:
    if not isinstance(desc, dict) or "dim" not in desc:
        raise ScenarioError("space descriptor needs a 'dim' key")
    return DualPair(int(desc["dim"]), NormTag.parse(desc.get("norm", "l2")))


def parse_set(desc: dict) -> CompactConvexSet:
    if not isinstance(desc, dict) or len(desc) == 0:
        raise ScenarioError("empty set descriptor")
    if "polytope" in desc:
        return Polytope(np.asarray(desc["polytope"], dtype=float))
    if "ball" in desc:
        b = desc["ball"]
        return Ball(np.asarray(b["center"], float), float(b["radius"]),
                    NormTag.parse(b.get("norm", "l2")))
    if "capsule" in desc:
        c = desc["capsule"]
        return Capsule(np.asarray(c["a"], float), np.asarray(c["b"], float),
                       float(c.get("radius", 0.0)),
                       NormTag.parse(c.get("norm", "l2")))
    raise ScenarioError(f"unknown set descriptor key: {sorted(desc)[0]!r}")


def parse_fn(desc: dict) -> ConvexFn:
    if not isinstance(desc, dict) or len(desc) == 0:
        raise ScenarioError("empty function descriptor")
    if "quadratic" in desc:
        q = desc["quadratic"]
        return Quadratic(np.asarray(q["Q"], float), np.asarray(q["b"], float),
                         float(q.get("c", 0.0)))
    if "norm" in desc:
        n = desc["norm"]
        return NormFn(int(n["dim"]), float(n.get("scale", 1.0)),
                      NormTag.parse(n.get("kind", "l2")))
    if "support" in desc:
        return SupportFn(parse_set(desc["support"]))
    if "indicator" in desc:
        return IndicatorFn(parse_set(desc["indicator"]))
    if "affine" in desc:
        a = desc["affine"]
        return Affine(np.asarray(a["a"], float), float(a.get("c", 0.0)))
    if "half_sq" in desc:
        return HalfSqNorm(int(desc["half_sq"]["dim"]))
    if "translate" in desc:
        t = desc["translate"]
        inner = parse_fn(t["inner"])
        zero = [0.0] * inner.dim
        try:
            return Translate(inner, shift=np.asarray(t.get("shift", zero),
                                                     float),
                             tilt=np.asarray(t.get("tilt", zero), float),
                             offset=float(t.get("offset", 0.0)))
        except ValueError as e:
            raise ScenarioError(str(e)) from None
    if "sum" in desc:
        fns = [parse_fn(d) for d in desc["sum"]]
        if len(fns) < 2:
            raise ScenarioError("function sum needs at least two summands")
        return add_fns(*fns)
    raise ScenarioError(f"unknown function descriptor key: {sorted(desc)[0]!r}")


def parse_operator(desc: dict, pair: DualPair) -> MonotoneOperator:
    if not isinstance(desc, dict) or len(desc) == 0:
        raise ScenarioError("empty operator descriptor")
    if "tail" in desc:
        T = tail_operator(int(desc["tail"]))
        if T.pair != pair:
            raise ScenarioError(
                f"the tail operator of size {T.pair.dim} lives on the l1 "
                f"pair of dimension {T.pair.dim}, not on the "
                f"{pair.primal_norm.value} pair of dimension {pair.dim}")
        return T
    if "graph" in desc:
        pts = [PairedPoint(np.asarray(a, float), np.asarray(b, float))
               for a, b in desc["graph"]]
        return FiniteGraph(pair=pair, points=tuple(pts))
    if "linear" in desc:
        return Linear(pair=pair, M=np.asarray(desc["linear"], float))
    if "subdiff" in desc:
        return Subdifferential(pair=pair, f=parse_fn(desc["subdiff"]))
    if "normal_cone" in desc:
        return NormalCone(pair=pair,
                          f=IndicatorFn(parse_set(desc["normal_cone"])))
    if "support_subdiff" in desc:
        return SupportSubdiff(
            pair=pair,
            f=SupportFn(parse_set(desc["support_subdiff"])),
        )
    if "shift" in desc:
        s = desc["shift"]
        return Shift(pair=pair, inner=parse_operator(s["inner"], pair),
                     dx=np.asarray(s.get("dx", np.zeros(pair.dim)), float),
                     dxstar=np.asarray(s.get("dxstar", np.zeros(pair.dim)),
                                       float))
    if "sum" in desc:
        ops = [parse_operator(d, pair) for d in desc["sum"]]
        if len(ops) != 2:
            raise ScenarioError("operator sum needs exactly two operands")
        return add(ops[0], ops[1])
    if "inverse" in desc:
        return inverse(parse_operator(
            desc["inverse"], DualPair(pair.dim, pair.dual_norm)))
    if "parallel_sum" in desc:
        ops = [parse_operator(d, pair) for d in desc["parallel_sum"]]
        if len(ops) != 2:
            raise ScenarioError("parallel sum needs exactly two operands")
        return parallel_sum(ops[0], ops[1])
    raise ScenarioError(f"unknown operator descriptor key: {sorted(desc)[0]!r}")


# ---------------------------------------------------------------------------
# scenario model


@dataclass
class Scenario:
    pair: DualPair
    operators: dict[str, MonotoneOperator]
    tasks: list[dict]
    # per task, the set and function descriptors its runner reads, parsed
    descriptors: list[dict[str, Any]]


def parse_scenario(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema {data.get('schema')!r}; expected "
            f"{SCHEMA_VERSION}"
        )
    pair = parse_space(data.get("space", {}))
    ops: dict[str, MonotoneOperator] = {}
    for name, desc in data.get("operators", {}).items():
        try:
            ops[name] = parse_operator(desc, pair)
        except (KeyError, TypeError, IndexError) as exc:
            # a missing key or a value of the wrong shape in the JSON
            raise ScenarioError(f"operator {name!r} is malformed: "
                                f"{type(exc).__name__}: {exc}") from exc
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError("'tasks' must be a list")
    descriptors = []
    for i, t in enumerate(tasks):
        if not isinstance(t, dict) or "kind" not in t:
            raise ScenarioError(f"task {i} needs a 'kind' key")
        if not isinstance(t["kind"], str) or t["kind"] not in _TASK_RUNNERS:
            raise ScenarioError(f"task {i} has unknown kind {t['kind']!r}")
        if "seed" not in t and t["kind"] not in ("tail_experiment",):
            raise ScenarioError(f"task {i} needs an explicit 'seed'")
        for key in _required_fields(t):
            if key not in t:
                raise ScenarioError(f"task {i} ({t['kind']}) needs a "
                                    f"{key!r} field")
        for (kind, key), values in _CHOICES.items():
            if t["kind"] == kind and t.get(key, values[0]) not in values:
                raise ScenarioError(f"task {i} ({kind}) has unknown {key} "
                                    f"{t[key]!r}; expected one of {values}")
        for key in ("operator", "S", "T"):
            ref = t.get(key)
            if ref is not None and (not isinstance(ref, str)
                                    or ref not in ops):
                raise ScenarioError(f"task {i} references unknown operator "
                                    f"{ref!r}")
        descriptors.append(_parse_descriptors(i, t))
    return Scenario(pair, ops, tasks, descriptors)


def _parse_descriptors(i: int, task: dict) -> dict[str, Any]:
    """The set and function descriptors that task ``i``'s runner reads,
    parsed; a malformed one is a ScenarioError naming task and field."""
    kind = task["kind"]
    out = {}
    for key in _DESCRIPTOR_FIELDS.get(
            task["class"] if kind == "classify" else kind, ()):
        if key in task:
            try:
                out[key] = (parse_fn if key == "fn" else parse_set)(task[key])
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise ScenarioError(f"task {i} ({kind}) has a malformed "
                                    f"{key!r}: {type(exc).__name__}: "
                                    f"{exc}") from exc
    return out


def finite_float(text: str) -> float:
    """JSON number hook that rejects NaN, Infinity, -Infinity and
    overflowing literals such as 1e400."""
    v = float(text)
    if not math.isfinite(v):
        raise ScenarioError(f"non-finite number {text!r}")
    return v


def load_json(text: str) -> Any:
    return json.loads(text, parse_constant=finite_float,
                      parse_float=finite_float)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = load_json(fh.read())
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return parse_scenario(data)


# ---------------------------------------------------------------------------
# task execution


def _vec(v) -> np.ndarray:
    out = np.asarray(v, dtype=float).ravel()
    if not np.all(np.isfinite(out)):
        raise ScenarioError(f"non-finite entry in {v!r}")
    return out


def _point(pair: DualPair, v, name: str) -> np.ndarray:
    """``_vec(v)`` of the pair's dimension; a point of another size is a
    ScenarioError, so a task refuses it before any solve."""
    out = _vec(v)
    try:
        return pair.check_dim(out, name)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _jsonable(x: Any) -> Any:
    if isinstance(x, np.ndarray):
        return [float(v) for v in x.ravel()]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, PairedPoint):
        return {"x": _jsonable(x.x), "xstar": _jsonable(x.xstar)}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _task_gap(sc: Scenario, task: dict) -> list[dict]:
    S = sc.operators[task["operator"]]
    seed = int(task["seed"])
    budget = int(task.get("budget", 100))
    eta = float(task.get("eta", 1e-6))
    if "probes" in task:
        probes = [PairedPoint(_point(sc.pair, p[0], "probe"),
                              _point(sc.pair, p[1], "probe"))
                  for p in task["probes"]]
    else:
        probes = qd_mod.default_probes(S, int(task.get("count", 20)), seed)
    # built first: GapQuery rejects a bad eta or two fuzz sets before any
    # solve
    queries = [qd_mod.GapQuery(p, dual_fuzz=task.get("dual_fuzz"),
                               primal_fuzz=task.get("primal_fuzz"), eta=eta)
               for p in probes]
    records = []
    for p, rep in zip(probes, qd_mod.gaps(S, queries, budget, seed)):
        if isinstance(rep, ResolventError):
            raise rep
        records.append({
            "anchor": "gap objective over the operator graph",
            "probe": _jsonable(p),
            "value": rep.value,
            "status": rep.status,
            "method": rep.method,
            "witness": _jsonable(rep.witness),
            "pass": rep.value <= eta,
        })
    return records


def _task_fitz(sc: Scenario, task: dict) -> list[dict]:
    S = sc.operators[task["operator"]]
    seed = int(task["seed"])
    budget = int(task.get("budget", 200))
    tol = float(task.get("tol", 1e-6))
    points = [(_point(sc.pair, p[0], "point"),
               _point(sc.pair, p[1], "point"))
              for p in task.get("points", [])]
    records = []
    for ystar, ystarstar in points:
        # phi reads the probe as a primal pair (x, x*); theta and the
        # membership verdict read it as a dual pair (y*, y**)
        ph = fitz_mod.phi(S, ystar, ystarstar, budget, seed)
        th = fitz_mod.theta(S, ystar, ystarstar, budget, seed)
        verdict = fitz_mod._membership_verdict(S, ystar, ystarstar, th, tol)
        records.append({
            "anchor": "Fitzpatrick sup and extension membership "
                      "(finite-dimensional identification)",
            "point": [_jsonable(ystar), _jsonable(ystarstar)],
            "phi": _jsonable(ph.value),
            "phi_status": ph.status,
            "theta": _jsonable(th.value),
            "theta_status": th.status,
            "membership": verdict,
        })
    return records


def _task_classify(sc: Scenario, task: dict) -> list[dict]:
    S = sc.operators[task["operator"]]
    seed = int(task["seed"])
    budget = int(task.get("budget", 200))
    cls = task["class"]
    if cls == "ni":
        w_star = _point(sc.pair, task["wstar"], "wstar")
        w_ss = _point(sc.pair, task["wstarstar"], "wstarstar")
        val = cls_mod.ni_infimum(S, w_star, w_ss, budget, seed)
        return [{
            "anchor": "negative-infimum criterion over the graph",
            "class": "ni", "wstar": _jsonable(w_star),
            "wstarstar": _jsonable(w_ss), "infimum": val,
            "nonpositive": val <= 1e-6,
        }]
    if cls in ("fpv", "fp"):
        w = _point(sc.pair, task["w"], "w")
        wstar = _point(sc.pair, task["wstar"], "wstar")
        fn = cls_mod.check_fpv if cls == "fpv" else cls_mod.check_fp
        v = fn(S, task["window"], w, wstar, budget, seed)
        return [{
            "anchor": "windowed local-maximality premise and graph "
                      "membership conclusion",
            "class": cls,
            "premise_holds": v.premise_holds,
            "vacuous": v.vacuous,
            "conclusion": v.conclusion,
            "consistent": v.consistent_with_class,
            "budget": budget, "seed": seed,
        }]
    if task.get("fuzz_side", "dual") == "dual":
        res = cls_mod.strong_max_dual(S, _point(sc.pair, task["w"], "w"),
                                      task["fuzz"], budget, seed)
    else:
        res = cls_mod.strong_max_primal(
            S, task["fuzz"], _point(sc.pair, task["wstar"], "wstar"),
            budget, seed)
    return [{
        "anchor": "fuzzy-set strong maximality search",
        "class": "strongmax",
        "premise_holds": res.premise_holds,
        "status": res.status,
        "point": _jsonable(res.point),
        "residual": _jsonable(res.residual),
    }]


def _task_br(sc: Scenario, task: dict) -> list[dict]:
    mode, fn = task["mode"], task["fn"]
    if mode == "point":
        res = br_mod.br_point(br_mod.BRRequest(
            fn, _vec(task["u"]), float(task["alpha"]), float(task["beta"])
        ))
    elif mode == "corollary":
        res = br_mod.br_corollary(fn, float(task["beta"]))
    elif mode == "van":
        pt = br_mod.van_point(fn, float(task["eps"]))
        return [{
            "anchor": "near-zero subgradient pair",
            "mode": "van", "point": _jsonable(pt),
        }]
    else:  # witness
        pt = br_mod.quasidense_witness(
            fn, _vec(task["x"]), _vec(task["xstar"]), float(task["eps"])
        )
        return [{
            "anchor": "constructive gap witness",
            "mode": "witness", "point": _jsonable(pt),
        }]
    return [{
        "anchor": "approximate-minimizer subgradient certificates",
        "mode": mode, "s": _jsonable(res.s), "xstar": _jsonable(res.xstar),
        "certs": _jsonable(res.certs), "membership": res.membership,
        "ok": res.ok,
    }]


def tail_experiment(
    n_list: list[int],
    step_cap: int = 100000,
) -> list[dict]:
    """Gap upper bounds for tail-map truncations under the l1/linf pair.

    The default probe is x = 0, x* = all-ones.  n = 1 is solved in
    closed form (the 1-D objective is a perfect square, minimized at
    the midpoint of x and x*).  Larger n report r at the best graph
    point of the gap's LCP (``quasidensity.gap_linear_qp``: Lemke's
    pivots, at most ``step_cap`` of them, counted in ``steps``; one
    start, no random draws, so ``restarts`` is 1) as an upper bound
    whose lower bound is 0 by Fenchel-Young.
    """
    rows = []
    for n in n_list:
        T = tail_operator(int(n))
        x, xstar = np.zeros(n), np.ones(n)
        target = PairedPoint(x, xstar)
        row = {"anchor": "tail truncation gap at the designated probe",
               "n": int(n)}
        if n == 1:
            s = 0.5 * (x + xstar)
            val = qd_mod.r_objective(T, target, s, T.M @ s)
            row.update(gap_bound=float(val), status="exact", steps=0,
                       restarts=0)
        else:
            rep, pivots = qd_mod.gap_linear_qp(T, target, step_cap)
            row.update(gap_bound=rep.value, status=rep.status,
                       steps=pivots, restarts=1,
                       witness=_jsonable(rep.witness))
        rows.append(row)
    return rows


def _domain_projection(S: MonotoneOperator, x: np.ndarray) -> np.ndarray:
    """Approximate nearest point of cl D(S): the small-step resolvent."""
    return S.resolvent(x, 1e-8).x


def _interior_domain_witness(
    S: MonotoneOperator, T: MonotoneOperator, seed: int, budget: int = 40
) -> Optional[np.ndarray]:
    """A point c of D(S) lying in the interior of D(T): the first
    sampled point of S, projected, that T's small-step resolvent moves,
    with each of its 2n axis perturbations by delta, by at most delta/2."""
    delta = 1e-4
    n = S.pair.dim
    offsets = np.vstack([np.zeros(n), delta * np.eye(n), -delta * np.eye(n)])
    for c in S.graph_rows(budget, seed)[0]:
        try:
            c = _domain_projection(S, c)
        except ResolventError:
            continue
        # a row whose resolvent fails is NaN, so it fails the test
        P = c + offsets
        if np.all(row_norms(T.resolvent(P, 1e-8)[0] - P, NormTag.L2)
                  <= 0.5 * delta):
            return c
    return None


def sum_test(
    S: MonotoneOperator,
    T: MonotoneOperator,
    mode: str,
    probes: int = 50,
    seed: int = 0,
    eta: float = 1e-6,
) -> dict:
    """Gap sweep over the operator sum (domain mode) or the parallel
    sum (range mode); skipped when no interior-intersection witness is
    found.  The probes' gaps come from one ``quasidensity.gaps`` call,
    and each probe's outcome follows its report: ``passed`` when the gap
    is at most eta, ``failed`` only when an exact gap is not (a NaN
    included), else ``unproven`` (an upper bound above eta shows no
    positive gap); a probe whose gap raises ``ResolventError`` counts in
    ``errors``.  ``worst_gap_status`` is the status of the worst gap."""
    if mode == "domain":
        witness = _interior_domain_witness(S, T, seed)
        combined = add(S, T)
    elif mode == "range":
        witness = _interior_domain_witness(inverse(S), inverse(T), seed)
        combined = parallel_sum(S, T)
    else:
        raise ScenarioError(f"unknown sum_test mode {mode!r}")
    if witness is None:
        return {
            "anchor": "sum-rule gap sweep",
            "mode": mode, "status": "skipped",
            "reason": "no interior witness",
        }
    probe_pts = qd_mod.default_probes(combined, probes, seed)
    # built first: GapQuery rejects a non-positive eta before any solve
    queries = [qd_mod.GapQuery(p, eta=eta) for p in probe_pts]
    passed = failed = unproven = errors = 0
    # r >= 0 by Fenchel-Young, so a worst gap of 0 is exact
    worst, worst_status = 0.0, "exact"
    for rep in qd_mod.gaps(combined, queries, seed=seed):
        if isinstance(rep, ResolventError):
            errors += 1
            continue
        # a NaN gap makes the worst gap NaN, and it stays NaN
        if np.isnan(rep.value) or rep.value > worst:
            worst, worst_status = rep.value, rep.status
        if rep.value <= eta:
            passed += 1
        elif rep.status == "exact":
            failed += 1
        else:
            unproven += 1
    return {
        "anchor": "sum-rule gap sweep",
        "mode": mode, "status": "ok", "witness": _jsonable(witness),
        "probes": len(probe_pts), "passed": passed, "failed": failed,
        "unproven": unproven, "errors": errors, "worst_gap": worst,
        "worst_gap_status": worst_status, "eta": eta,
    }


def _task_tail(sc: Scenario, task: dict) -> list[dict]:
    return tail_experiment(
        [int(n) for n in task.get("n_list", [])],
        step_cap=int(task.get("step_cap", 100000)),
    )


def _task_sum(sc: Scenario, task: dict) -> list[dict]:
    S = sc.operators[task["S"]]
    T = sc.operators[task["T"]]
    return [sum_test(
        S, T, task.get("mode", "domain"),
        probes=int(task.get("probes", 50)), seed=int(task["seed"]),
        eta=float(task.get("eta", 1e-6)),
    )]


_TASK_RUNNERS = {
    "gap": _task_gap,
    "fitz": _task_fitz,
    "classify": _task_classify,
    "br": _task_br,
    "tail_experiment": _task_tail,
    "sum_test": _task_sum,
}

# the fields each runner reads without a default, by kind and then by the
# kind's class or mode; a strongmax task also reads w (fuzz_side "dual",
# the default) or wstar (fuzz_side "primal")
_TASK_FIELDS = {
    "gap": ("operator",),
    "fitz": ("operator",),
    "classify": ("operator", "class"),
    "br": ("mode", "fn"),
    "tail_experiment": (),
    "sum_test": ("S", "T"),
}
_MODE_FIELDS = {
    ("classify", "ni"): ("wstar", "wstarstar"),
    ("classify", "fpv"): ("window", "w", "wstar"),
    ("classify", "fp"): ("window", "w", "wstar"),
    ("classify", "strongmax"): ("fuzz",),
    ("br", "point"): ("u", "alpha", "beta"),
    ("br", "corollary"): ("beta",),
    ("br", "van"): ("eps",),
    ("br", "witness"): ("x", "xstar", "eps"),
}


# the values a task's class, mode or fuzz side may take, by kind and
# field; the first is the default where the field may be left out
_CHOICES = {
    ("classify", "class"): ("ni", "fpv", "fp", "strongmax"),
    ("classify", "fuzz_side"): ("dual", "primal"),
    ("br", "mode"): ("point", "corollary", "van", "witness"),
    ("sum_test", "mode"): ("domain", "range"),
}
# the fields that hold a set or a function descriptor, by kind or by a
# classify task's class
_DESCRIPTOR_FIELDS = {"gap": ("dual_fuzz", "primal_fuzz"), "br": ("fn",),
                      "fpv": ("window",), "fp": ("window",),
                      "strongmax": ("fuzz",)}


def _required_fields(task: dict) -> tuple[str, ...]:
    kind = task["kind"]
    mode = task.get("class" if kind == "classify" else "mode")
    if not isinstance(mode, str):
        mode = None
    need = _TASK_FIELDS[kind] + _MODE_FIELDS.get((kind, mode), ())
    if (kind, mode) == ("classify", "strongmax"):
        need += ("w",) if task.get("fuzz_side", "dual") == "dual" \
            else ("wstar",)
    return need


def run_scenario(scenario: str | dict) -> dict:
    """Executes every task of the scenario, given as a file path or as
    an already-parsed JSON object, and returns the report dict
    (JSON-ready).  A parsed scenario is reported as ``"<inline>"``."""
    if isinstance(scenario, dict):
        sc, name = parse_scenario(scenario), "<inline>"
    else:
        sc, name = load_scenario(scenario), scenario
    report: dict[str, Any] = {"schema": SCHEMA_VERSION, "scenario": name,
                              "tasks": []}
    for i, task in enumerate(sc.tasks):
        entry: dict[str, Any] = {"index": i, "kind": task["kind"],
                                 "task": task}
        t0 = time.perf_counter()
        try:
            # the runner reads the task with its descriptors parsed
            entry["records"] = _TASK_RUNNERS[task["kind"]](
                sc, dict(task, **sc.descriptors[i]))
            entry["status"] = "ok"
        except ScenarioError:
            raise
        except Exception as exc:  # recorded, batch continues
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["elapsed_s"] = time.perf_counter() - t0
        report["tasks"].append(entry)
    return report


def _finite_json(obj: Any) -> Any:
    """Copy of ``obj`` with each non-finite float replaced by the string
    "inf", "-inf" or "nan", which strict JSON can carry."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def report_json(report: dict) -> str:
    """One line of strict JSON with sorted keys: non-finite floats are
    written as the strings "inf", "-inf" and "nan".  The C encoder
    writes a finite report as it stands; only a report that it refuses
    for a non-finite float is copied by ``_finite_json`` first."""
    try:
        return json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float
        return json.dumps(_finite_json(report), sort_keys=True,
                          allow_nan=False)


def strip_timings(report: dict) -> dict:
    """Copy of the report without timing fields, for reproducibility
    comparisons."""
    out = json.loads(report_json(report))
    for t in out.get("tasks", []):
        t.pop("elapsed_s", None)
    return out


def report_csv(report: dict) -> str:
    """Flat projection: one row per record, complex fields serialized
    as compact JSON."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["task_index", "kind", "record_index", "field", "value"])
    for t in report.get("tasks", []):
        if t.get("status") != "ok":
            writer.writerow([t.get("index"), t.get("kind"), "", "status",
                             t.get("status")])
            if "error" in t:
                writer.writerow([t.get("index"), t.get("kind"), "", "error",
                                 t["error"]])
            continue
        for j, rec in enumerate(t.get("records", [])):
            for k in sorted(rec):
                v = rec[k]
                if isinstance(v, (dict, list)):
                    v = json.dumps(v, sort_keys=True)
                writer.writerow([t["index"], t["kind"], j, k, v])
    return buf.getvalue()
