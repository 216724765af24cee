"""Scenario execution and report generation.

A scenario is a UTF-8 JSON file (top-level "schema": 1) declaring a
space, named operators, and a task list.  Each task kind's runner
reads every field of its task when the scenario is parsed, before any
task runs, so a missing or malformed field is a ScenarioError naming
the task and the field.  Tasks then run in declaration order; per-task
failures are recorded and never abort the batch.  JSON
is the canonical report format, one line of strict JSON with sorted
keys, and its parsed report is reproducible under a fixed seed (timing
fields are excluded from comparisons); CSV is a lossy flat projection.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

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
        # one array of the points (x, x*), each part flattened as
        # PairedPoint flattens it; FiniteGraph checks their size
        try:
            G = np.asarray(desc["graph"], dtype=float)
        except ValueError as exc:  # ragged, or an entry that is no number
            raise ScenarioError(f"graph is malformed: {exc}") from None
        if G.shape != (0,) and (G.ndim < 2 or G.shape[1] != 2):
            raise ScenarioError(f"graph is malformed: shape {G.shape} is "
                                "not that of a list of pairs (x, x*)")
        G = G.reshape(len(G), 2, math.prod(G.shape[2:]))
        return FiniteGraph(pair=pair, points=tuple(
            PairedPoint.of_rows(x, xs) for x, xs in G))
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
    tasks: list[dict]
    # per task, its runner's closure: every field read, only the solves left
    runs: list[Callable[[], list[dict]]]


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
        except (KeyError, TypeError, IndexError, OverflowError) as exc:
            # a missing key, a value of the wrong shape in the JSON or an
            # integer too large for a float
            raise ScenarioError(f"operator {name!r} is malformed: "
                                f"{type(exc).__name__}: {exc}") from exc
    tasks = data.get("tasks", [])
    if not isinstance(tasks, list):
        raise ScenarioError("'tasks' must be a list")
    runs = []
    for i, t in enumerate(tasks):
        if not isinstance(t, dict) or "kind" not in t:
            raise ScenarioError(f"task {i} needs a 'kind' key")
        kind = t["kind"]
        if not isinstance(kind, str) or kind not in _TASK_RUNNERS:
            raise ScenarioError(f"task {i} has unknown kind {kind!r}")
        try:
            # an operator name is checked in every kind, read or not
            for key in ("operator", "S", "T"):
                if key in t:
                    _op(ops, t, key)
            runs.append(_TASK_RUNNERS[kind](pair, ops, t))
        except ScenarioError as exc:
            raise ScenarioError(f"task {i} ({kind}) {exc}") from exc
    return Scenario(tasks, runs)


def finite_float(text: str) -> float:
    """JSON number hook that rejects NaN, Infinity, -Infinity and
    overflowing literals such as 1e400."""
    v = float(text)
    if not math.isfinite(v):
        raise ScenarioError(f"non-finite number {text!r}")
    return v


# digits read as 0, E as e, signs dropped: a number literal that can
# overflow a float reads "e000" (an exponent of three or more digits) or
# holds a run of 210 or more digits, as an exponent of at most two
# digits adds at most 99 to the 309 digits of the least overflow
_NUMBER_SHAPE = str.maketrans("123456789E", "000000000e", "+-")


# json.loads builds a decoder on each call that passes a hook
_DECODE = json.JSONDecoder(parse_constant=finite_float).decode
_DECODE_CHECKED = json.JSONDecoder(parse_constant=finite_float,
                                   parse_float=finite_float).decode


def load_json(text: str) -> Any:
    """The JSON ``text``, refusing NaN, Infinity and a number that
    overflows; json's C parser reads every float where ``text`` holds no
    literal that can overflow, and ``finite_float`` reads each
    otherwise."""
    if text.startswith("\ufeff"):  # as json.loads refuses it
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    shape = text.translate(_NUMBER_SHAPE)
    if "e000" in shape or "0" * 210 in shape:
        return _DECODE_CHECKED(text)
    return _DECODE(text)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # a missing file, a directory, no permission
        raise ScenarioError(str(exc)) from exc
    try:
        data = load_json(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return parse_scenario(data)


# ---------------------------------------------------------------------------
# task fields: each runner reads its task's through these, at parse

_REQUIRED = object()  # the default of a field that has none

# the values of a task's choice fields, which the CLI's choices share
CLASSIFY_CLASSES = ("ni", "fpv", "fp", "strongmax")
FUZZ_SIDES = ("dual", "primal")
BR_MODES = ("point", "corollary", "van", "witness")
SUM_MODES = ("domain", "range")


def _field(task: dict, key: str, parse: Callable[[Any], Any] = lambda v: v,
           default: Any = _REQUIRED) -> Any:
    """``parse`` of the task's field ``key``, or ``default`` when it has
    none; a required field left out, or a value that ``parse`` refuses,
    is a ScenarioError naming the field."""
    if key not in task:
        if default is _REQUIRED:
            raise ScenarioError(f"needs a {key!r} field")
        return default
    try:
        return parse(task[key])
    except (KeyError, TypeError, IndexError, ValueError,
            OverflowError) as exc:
        raise ScenarioError(f"has a malformed {key!r}: "
                            f"{type(exc).__name__}: {exc}") from exc


def _pick(task: dict, key: str, choices: tuple[str, ...],
          default: Any = _REQUIRED) -> str:
    """The task's field ``key``, one of ``choices``."""
    value = _field(task, key, default=default)
    if value not in choices:
        raise ScenarioError(f"has unknown {key} {value!r}; expected one "
                            f"of {choices}")
    return value


def _op(ops: dict, task: dict, key: str = "operator") -> MonotoneOperator:
    """The operator that the task's field ``key`` names."""
    name = _field(task, key)
    if not isinstance(name, str) or name not in ops:
        raise ScenarioError(f"references unknown operator {name!r}")
    return ops[name]


def _point(pair: DualPair, name: str) -> Callable[[Any], np.ndarray]:
    """Parser of a finite point, ``name``, of the pair's dimension."""
    def parse(v) -> np.ndarray:
        out = np.asarray(v, dtype=float).ravel()
        if not np.isfinite(out).all():
            raise ValueError(f"non-finite entry in {v!r}")
        return pair.check_dim(out, name)
    return parse


def _set(pair: DualPair) -> Callable[[Any], CompactConvexSet]:
    """Parser of a set descriptor of the pair's dimension."""
    def parse(desc) -> CompactConvexSet:
        out = parse_set(desc)
        if out.dim != pair.dim:
            raise ValueError(f"set has dimension {out.dim}, expected "
                             f"{pair.dim}")
        return out
    return parse


def _at_least(lo: int) -> Callable[[Any], int]:
    """Parser of an integer no less than ``lo``: an int, or a float with
    no fractional part such as 2.0; a bool, a string or 2.5 is
    refused."""
    def parse(v) -> int:
        if isinstance(v, bool):
            raise TypeError(f"{v!r} is not an integer")
        n = int(v) if isinstance(v, float) and v.is_integer() else \
            operator.index(v)
        if n < lo:
            raise ValueError(f"{n} is below {lo}")
        return n
    return parse


def _positive(v) -> float:
    x = float(v)
    if not x > 0:
        raise ValueError(f"{x} is not positive")
    return x


# ---------------------------------------------------------------------------
# task execution


def _jsonable(x: Any) -> Any:
    if isinstance(x, np.ndarray):
        return x.astype(float, copy=False).ravel().tolist()
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


def _task_gap(pair: DualPair, ops: dict, task: dict) -> Callable:
    S = _op(ops, task)
    seed = _field(task, "seed", _at_least(0))
    budget = _field(task, "budget", _at_least(0), 100)
    eta = _field(task, "eta", _positive, 1e-6)
    probe = _point(pair, "probe")
    probes = _field(task, "probes", lambda ps: [
        PairedPoint.of_rows(probe(p[0]), probe(p[1])) for p in ps], None)
    if probes is None:
        count = _field(task, "count", _at_least(0), 20)
    dual_fuzz = _field(task, "dual_fuzz", _set(pair), None)
    primal_fuzz = _field(task, "primal_fuzz", _set(pair), None)
    if dual_fuzz is not None and primal_fuzz is not None:
        raise ScenarioError("has both a 'dual_fuzz' and a 'primal_fuzz'")
    # the objective: the gap, or a fuzzy gap whose set replaces one
    # component of each probe
    if dual_fuzz is not None:
        def solve(ps: list[PairedPoint]) -> list:
            return [qd_mod.fuzzy_gap_dual(S, p.x, dual_fuzz, budget, seed)
                    for p in ps]
    elif primal_fuzz is not None:
        def solve(ps: list[PairedPoint]) -> list:
            return [qd_mod.fuzzy_gap_primal(S, primal_fuzz, p.xstar, budget,
                                            seed) for p in ps]
    else:
        def solve(ps: list[PairedPoint]) -> list:
            return qd_mod.gaps(S, ps, budget, seed)

    def run() -> list[dict]:
        ps = qd_mod.default_probes(S, count, seed) if probes is None \
            else probes
        records = []
        for p, rep in zip(ps, solve(ps)):
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
    return run


def _task_fitz(pair: DualPair, ops: dict, task: dict) -> Callable:
    S = _op(ops, task)
    seed = _field(task, "seed", _at_least(0))
    budget = _field(task, "budget", _at_least(0), 200)
    tol = _field(task, "tol", _positive, 1e-6)
    point = _point(pair, "point")
    points = _field(task, "points", lambda ps: [
        (point(p[0]), point(p[1])) for p in ps], [])

    def run() -> list[dict]:
        records = []
        for ystar, ystarstar in points:
            # phi reads the probe as a primal pair (x, x*); theta and the
            # membership verdict read it as a dual pair (y*, y**)
            ph = fitz_mod.phi(S, ystar, ystarstar, budget, seed)
            th = fitz_mod.theta(S, ystar, ystarstar, budget, seed)
            verdict = fitz_mod._membership_verdict(S, ystar, ystarstar, th,
                                                   tol)
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
    return run


def _task_classify(pair: DualPair, ops: dict, task: dict) -> Callable:
    S = _op(ops, task)
    seed = _field(task, "seed", _at_least(0))
    budget = _field(task, "budget", _at_least(0), 200)
    cls = _pick(task, "class", CLASSIFY_CLASSES)
    # read in every class, so that a misspelt side is refused in each
    fuzz_side = _pick(task, "fuzz_side", FUZZ_SIDES, "dual")

    def point(key: str) -> np.ndarray:
        return _field(task, key, _point(pair, key))

    if cls == "ni":
        w_star, w_ss = point("wstar"), point("wstarstar")

        def run() -> list[dict]:
            val = cls_mod.ni_infimum(S, w_star, w_ss, budget, seed)
            return [{
                "anchor": "negative-infimum criterion over the graph",
                "class": "ni", "wstar": _jsonable(w_star),
                "wstarstar": _jsonable(w_ss), "infimum": val,
                "nonpositive": val <= 1e-6,
            }]
        return run
    if cls in ("fpv", "fp"):
        window = _field(task, "window", _set(pair))
        w, wstar = point("w"), point("wstar")
        check = cls_mod.check_fpv if cls == "fpv" else cls_mod.check_fp

        def run() -> list[dict]:
            v = check(S, window, w, wstar, budget, seed)
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
        return run
    fuzz = _field(task, "fuzz", _set(pair))
    if fuzz_side == "dual":
        search, args = cls_mod.strong_max_dual, (point("w"), fuzz)
    else:
        search, args = cls_mod.strong_max_primal, (fuzz, point("wstar"))

    def run() -> list[dict]:
        res = search(S, *args, budget, seed)
        return [{
            "anchor": "fuzzy-set strong maximality search",
            "class": "strongmax",
            "premise_holds": res.premise_holds,
            "status": res.status,
            "point": _jsonable(res.point),
            "residual": _jsonable(res.residual),
        }]
    return run


def _task_br(pair: DualPair, ops: dict, task: dict) -> Callable:
    # every kind but tail_experiment names its seed; no br procedure draws
    _field(task, "seed", _at_least(0))
    mode = _pick(task, "mode", BR_MODES)
    fn = _field(task, "fn", parse_fn)
    # u, x and x* are points of the function's own space
    fn_pair = DualPair(fn.dim)

    def point(key: str) -> np.ndarray:
        return _field(task, key, _point(fn_pair, key))

    if mode == "van":
        eps = _field(task, "eps", _positive)
        return lambda: [{"anchor": "near-zero subgradient pair",
                         "mode": "van",
                         "point": _jsonable(br_mod.van_point(fn, eps))}]
    if mode == "witness":
        x, xstar = point("x"), point("xstar")
        eps = _field(task, "eps", _positive)
        return lambda: [{"anchor": "constructive gap witness",
                         "mode": "witness",
                         "point": _jsonable(br_mod.quasidense_witness(
                             fn, x, xstar, eps))}]
    if mode == "point":
        req = br_mod.BRRequest(fn, point("u"),
                               _field(task, "alpha", _positive),
                               _field(task, "beta", _positive))
    else:  # corollary
        beta = _field(task, "beta", _positive)

    def run() -> list[dict]:
        res = br_mod.br_point(req) if mode == "point" \
            else br_mod.br_corollary(fn, beta)
        return [{
            "anchor": "approximate-minimizer subgradient certificates",
            "mode": mode, "s": _jsonable(res.s),
            "xstar": _jsonable(res.xstar), "certs": _jsonable(res.certs),
            "membership": res.membership, "ok": res.ok,
        }]
    return run


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
    ``errors``.  ``worst_gap_status`` is the status of the worst gap.  A
    non-positive eta raises ``ValueError`` before any solve."""
    if eta <= 0:
        raise ValueError("eta must be positive")
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
    passed = failed = unproven = errors = 0
    # r >= 0 by Fenchel-Young, so a worst gap of 0 is exact
    worst, worst_status = 0.0, "exact"
    for rep in qd_mod.gaps(combined, probe_pts, seed=seed):
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


def _task_tail(pair: DualPair, ops: dict, task: dict) -> Callable:
    n_list = _field(task, "n_list", lambda ns: list(map(_at_least(1), ns)), [])
    step_cap = _field(task, "step_cap", _at_least(0), 100000)
    return lambda: tail_experiment(n_list, step_cap)


def _task_sum(pair: DualPair, ops: dict, task: dict) -> Callable:
    S, T = _op(ops, task, "S"), _op(ops, task, "T")
    mode = _pick(task, "mode", SUM_MODES, "domain")
    probes = _field(task, "probes", _at_least(0), 50)
    seed = _field(task, "seed", _at_least(0))
    eta = _field(task, "eta", _positive, 1e-6)
    return lambda: [sum_test(S, T, mode, probes, seed, eta)]


_TASK_RUNNERS = {
    "gap": _task_gap,
    "fitz": _task_fitz,
    "classify": _task_classify,
    "br": _task_br,
    "tail_experiment": _task_tail,
    "sum_test": _task_sum,
}


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
    for i, (task, run) in enumerate(zip(sc.tasks, sc.runs)):
        entry: dict[str, Any] = {"index": i, "kind": task["kind"],
                                 "task": task}
        t0 = time.perf_counter()
        try:
            entry["records"] = run()
            entry["status"] = "ok"
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


# built once, where json.dumps builds an encoder on each call
_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def report_json(report: dict) -> str:
    """One line of strict JSON with sorted keys: non-finite floats are
    written as the strings "inf", "-inf" and "nan".  The C encoder
    writes a finite report as it stands; only a report that it refuses
    for a non-finite float is copied by ``_finite_json`` first."""
    try:
        return _ENCODE(report)
    except ValueError:  # a non-finite float
        return _ENCODE(_finite_json(report))


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
