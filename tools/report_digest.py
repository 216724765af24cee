"""Digest of the benchmark workloads' reports, with timings and paths
stripped, so that two source checkouts can be compared for identical
output.

    python3 tools/report_digest.py --root CHECKOUT [--out FILE]
    python3 tools/report_digest.py --diff A.jsonl B.jsonl

Imports the program from ``CHECKOUT/src`` and the operations from
``CHECKOUT/perfbench/workloads.py``, runs rounds 0-3 of seeds 1-3 of
every workload through ``cli.main`` (or the operation's library call),
and prints one sha256 per workload over the outputs in run order. Each
output is the parsed report with every ``elapsed_s`` removed and the
scenario path replaced by ``{scenario}``, the exit code, and the error
text of a failed call; a library call's result is written out field by
field. Equal digests mean equal parsed reports (whitespace is not
compared). ``--out`` writes the stripped outputs, one JSON line per
operation, for a diff. Scenario files go to a temporary directory that
is deleted at the end. Run it on a second checkout (``git archive`` of
the parent commit, say) to compare a change against its parent.

A fourth line, ``library``, digests a fixed grid of library calls that
the workloads never reach: every operator kind (finite graph, linear,
subdifferential, normal cone, support subdifferential, shift, sum and
inverses) on the l1, l2 and linf pairs for three seeds, through gap,
both fuzzy gaps, phi, ``fitz_membership``, both strong-maximality
searches, ``contains`` on the graph rows, ``monotone_check`` and
``is_quasidense`` at three probes (the batched gap path); and
``project`` and the three ``dist`` of every set kind; and
``harness.sum_test`` in both modes on 2-D sums (the pair's norm or a
linear map, plus the normal cone of a box) on each pair; and ``phi``,
``fitz_membership`` and ``phi_conj`` of 2-D and 3-D separable folded
sums on each pair (an l1 norm plus a box's indicator, a box's support
function plus a box's indicator, and the half squared norm plus an l1
norm), and those three and ``contains`` of 2-D and 3-D sums that are
not separable (the l2 norm plus the half squared norm, a translate of
it, and the l2 norm plus a box's indicator, each the subdifferential
of its ``SumFn``), at a free point and at a graph point; and the
linear-map gap's LCP at the sizes where its ties and long pivot runs
occur: ``tail_experiment([32, 64])`` and the gaps of psd+skew
``Linear`` maps at n = 32 on the l1 and linf pairs for three seeds, at
a random probe and at the tied probe (0, 1); and both strong-maximality
searches on 20 seeds of 2-D monotone ``Linear`` maps B B'/2 + (K - K')/2
with a box fuzz set on each pair (the family where the search has ended
``unknown`` on a false premise); and both fuzzy gaps of finite graphs,
their inverses and linear maps on the l1 and linf pairs at seeds 1 and 2
against a hull of n + 2 random vertices, which is no box. It uses
public names only, so it runs on older checkouts too. The fuzz sets of
the operator grid are boxes on the l1/linf pairs and hulls on l2.

``--diff A B`` reads two ``--out`` files (A the parent's, say) and
prints, for each label whose records moved, how many did and how: the
status moves of every ``*status`` field (``lower_bound->exact``), the
direction of every scalar number that moved (``up``/``down``/``nan``;
witness and probe coordinates are list entries and count under
``other``), every verdict that moved (a membership word or a
boolean), and every record key added (``+key``) or removed (``-key``).
A library label counts its seeds together.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as run.py

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 4

LIBRARY_SEEDS = (0, 1, 2)
LIBRARY_BUDGET = 16
NORMS = ("l1", "l2", "linf")
SET_KINDS = ("box", "hull", "capsule", "ball_l1", "ball_l2", "ball_linf")
FN_KINDS = ("norm", "half_sq", "quadratic", "affine", "translate",
            "indicator", "support", "sum_folded", "sum_dr")
OP_KINDS = ("graph", "linear", "subdiff", "normal_cone", "support_subdiff",
            "shift", "sum", "inverse_graph", "inverse_linear",
            "inverse_subdiff", "inverse_normal_cone", "inverse_shift",
            "inverse_sum")
# (S, T) of the sum_test entries on the three 2-D pairs: T is the normal
# cone of a box about 0 or of a small one, so that the interior witness
# of at least one mode is found
SUM_CASES = (("norm", "small_box"), ("linear", "box"),
             ("linear", "small_box"))
SUM_BOXES = {"box": ([-1.0, -1.0], [1.5, 1.5]),
             "small_box": ([-0.05, -0.05], [0.04, 0.06])}
SUM_PROBES = 4
QD_PROBES = 3
SEPARABLE_SUMS = ("l1+box", "support+box", "half_sq+l1")
# sums that are not separable: no closed-form conjugate
JOINT_SUMS = ("l2+half_sq", "translate", "l2+box")
# the linear-map gap's LCP: tail rows, and psd+skew maps on l1 and linf
LCP_TAIL_SIZES = (32, 64)
LCP_DIM = 32
# strong maximality on 2-D monotone linear maps with a box fuzz set
STRONG_MAX_SEEDS = range(20)
# both fuzzy gaps against a hull that is no box, on the l1/linf pairs
FUZZY_HULL_KINDS = ("graph", "inverse_graph", "linear")


def plain(obj):
    """``obj`` as JSON-ready lists, dicts and floats, field by field."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def run_op(op, lab, path: str | None) -> dict:
    """The stripped output of one operation."""
    if op.call is not None:
        return record(lambda: op.call(lab))
    argv = [path if a == "{scenario}" else a for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
    text = out.getvalue()
    if path is not None:
        text = text.replace(json.dumps(path)[1:-1], "{scenario}")
    try:
        report = json.loads(text)
    except ValueError:
        report = text
    if isinstance(report, dict):
        for task in report.get("tasks", []):
            task.pop("elapsed_s", None)
    rec = {"rc": rc, "report": report}
    if rc != 0:
        rec["stderr"] = (err.getvalue() if path is None
                         else err.getvalue().replace(path, "{scenario}"))
    return rec


def make_set(lab, rng, n: int, kind: str):
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, n)
        return lab.box(lo, lo + rng.uniform(0.0, 2.0, n))
    if kind == "hull":
        return lab.Polytope(vertices=rng.uniform(-2.0, 2.0, (n + 2, n)))
    if kind == "capsule":
        return lab.Capsule(a=rng.uniform(-1.0, 1.0, n),
                           b=rng.uniform(-1.0, 1.0, n),
                           radius=float(rng.uniform(0.0, 1.0)),
                           norm=lab.NormTag(NORMS[int(rng.integers(3))]))
    return lab.Ball(center=rng.uniform(-1.0, 1.0, n),
                    radius=float(rng.uniform(0.0, 2.0)),
                    norm=lab.NormTag(kind.split("_")[1]))


def make_fn(lab, rng, n: int, kind: str):
    norm = lab.NormTag(NORMS[int(rng.integers(3))])
    if kind == "norm":
        return lab.NormFn(n, float(rng.uniform(0.0, 2.0)), norm)
    if kind == "half_sq":
        return lab.HalfSqNorm(n)
    if kind == "quadratic":
        B = rng.normal(size=(n, n))
        return lab.Quadratic(B @ B.T, rng.normal(size=n), 0.5)
    if kind == "affine":
        return lab.Affine(rng.normal(size=n), 1.0)
    if kind == "translate":
        return lab.Translate(make_fn(lab, rng, n, "norm"),
                             rng.normal(size=n), rng.normal(size=n), 0.25)
    set_kind = SET_KINDS[int(rng.integers(len(SET_KINDS)))]
    if kind == "indicator":
        return lab.IndicatorFn(make_set(lab, rng, n, set_kind))
    if kind == "support":
        return lab.SupportFn(make_set(lab, rng, n, set_kind))
    if kind == "sum_folded":
        return lab.SumFn(lab.HalfSqNorm(n), make_fn(lab, rng, n, "norm"))
    # Douglas-Rachford, but for an l1 norm or in 1-D, where the box
    # clips the norm's prox
    return lab.SumFn(lab.NormFn(n, 0.5, norm),
                     lab.IndicatorFn(make_set(lab, rng, n, "box")))


def make_op(lab, rng, pair, kind: str):
    n = pair.dim
    if kind == "graph":
        return lab.FiniteGraph(pair=pair, points=tuple(
            lab.PairedPoint(rng.normal(size=n), rng.normal(size=n))
            for _ in range(int(rng.integers(1, 5)))))
    if kind == "linear":
        B, K = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        return lab.Linear(pair=pair, M=B @ B.T + K - K.T)
    if kind == "subdiff":
        fn_kind = FN_KINDS[int(rng.integers(len(FN_KINDS)))]
        return lab.Subdifferential(pair=pair,
                                   f=make_fn(lab, rng, n, fn_kind))
    set_kind = SET_KINDS[int(rng.integers(len(SET_KINDS)))]
    if kind == "normal_cone":
        return lab.normal_cone(pair, make_set(lab, rng, n, set_kind))
    if kind == "support_subdiff":
        return lab.support_subdiff(pair, make_set(lab, rng, n, set_kind))
    if kind == "shift":
        return lab.Shift(pair=pair, inner=make_op(lab, rng, pair, "subdiff"),
                         dx=rng.normal(size=n), dxstar=rng.normal(size=n))
    if kind == "sum":
        return lab.SumOp(pair=pair, S=make_op(lab, rng, pair, "linear"),
                         T=lab.Subdifferential(pair=pair,
                                               f=lab.NormFn(n, 0.5)))
    inner_pair = lab.DualPair(n, pair.dual_norm)
    return lab.inverse(make_op(lab, rng, inner_pair, kind.split("_", 1)[1]))


def record(call) -> dict:
    """The result of ``call()`` field by field, or its error text."""
    try:
        return {"result": plain(call())}
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def library_records(lab):
    """(label, record) for each call of the library grid, in order."""
    budget = LIBRARY_BUDGET
    for seed in LIBRARY_SEEDS:
        n = 1 + seed
        for j, norm in enumerate(NORMS):
            pair = lab.DualPair(n, lab.NormTag(norm))
            for k, kind in enumerate(OP_KINDS):
                rng = np.random.default_rng([seed, j, k])
                S = make_op(lab, rng, pair, kind)
                x, xs = rng.uniform(-2.0, 2.0, (2, n))
                fuzz = "box" if norm != "l2" else "hull"
                W = make_set(lab, rng, n, fuzz)
                Wt = make_set(lab, rng, n, fuzz)
                probes = [lab.PairedPoint(*rng.uniform(-2.0, 2.0, (2, n)))
                          for _ in range(QD_PROBES)]
                calls = {
                    "gap": lambda: lab.gap(
                        S, lab.GapQuery(lab.PairedPoint(x, xs)), budget,
                        seed),
                    "fuzzy_dual": lambda: lab.fuzzy_gap_dual(
                        S, x, Wt, budget, seed),
                    "fuzzy_primal": lambda: lab.fuzzy_gap_primal(
                        S, W, xs, budget, seed),
                    "phi": lambda: lab.phi(S, x, xs, budget, seed),
                    "fitz_membership": lambda: lab.fitz_membership(
                        S, xs, x, budget=budget, seed=seed),
                    "strong_max_dual": lambda: lab.strong_max_dual(
                        S, x, Wt, budget, seed),
                    "strong_max_primal": lambda: lab.strong_max_primal(
                        S, W, xs, budget, seed),
                    "contains": lambda: [S.contains(a, b) for a, b in zip(
                        *S.graph_rows(budget, seed))] + [S.contains(x, xs)],
                    "monotone_check": lambda: lab.monotone_check(
                        S, budget, seed),
                    "is_quasidense": lambda: lab.is_quasidense(
                        S, probes, budget=budget, seed=seed),
                }
                for name, call in calls.items():
                    yield f"{kind}/{norm}/{seed}/{name}", record(call)
        for k, kind in enumerate(SET_KINDS):
            rng = np.random.default_rng([seed, len(NORMS), k])
            K = make_set(lab, rng, n, kind)
            Y = rng.uniform(-4.0, 4.0, (2, n))
            yield (f"set/{kind}/{seed}/project",
                   record(lambda: [K.project(y) for y in Y]))
            for norm in NORMS:
                yield (f"set/{kind}/{seed}/dist/{norm}",
                       record(lambda: [K.dist(y, lab.NormTag(norm))
                                       for y in Y]))


def sum_test_records(lab):
    """(label, record) for each sum_test call of the library grid."""
    for j, norm in enumerate(NORMS):
        pair = lab.DualPair(2, lab.NormTag(norm))
        for k, (s_kind, box_kind) in enumerate(SUM_CASES):
            rng = np.random.default_rng([len(LIBRARY_SEEDS), j, k])
            S = (lab.Subdifferential(pair=pair,
                                     f=lab.NormFn(2, 1.0, pair.primal_norm))
                 if s_kind == "norm" else make_op(lab, rng, pair, s_kind))
            T = lab.normal_cone(pair, lab.box(*SUM_BOXES[box_kind]))
            for mode in ("domain", "range"):
                yield (f"sum_test/{s_kind}+{box_kind}/{norm}/{mode}",
                       record(lambda: lab.harness.sum_test(
                           S, T, mode, probes=SUM_PROBES, seed=k)))


def make_sum(lab, rng, pair, kind: str):
    """The subdifferential of a 2-D or 3-D sum of ``SEPARABLE_SUMS``, as
    ``add`` folds it, or of ``JOINT_SUMS``, as the subdifferential of the
    ``SumFn``."""
    n = pair.dim
    if kind in JOINT_SUMS:
        l2 = lab.SumFn(lab.NormFn(n), lab.HalfSqNorm(n))
        if kind == "translate":
            return lab.Subdifferential(pair=pair, f=lab.Translate(
                l2, rng.normal(size=n), rng.normal(size=n), 0.25))
        if kind == "l2+box":
            lo = rng.uniform(-2.0, 0.0, n)
            l2 = lab.SumFn(lab.NormFn(n), lab.IndicatorFn(
                lab.box(lo, lo + rng.uniform(0.1, 2.0, n))))
        return lab.Subdifferential(pair=pair, f=l2)
    lo, lo2 = rng.uniform(-2.0, 0.0, (2, n))
    l1 = lab.NormFn(n, float(rng.uniform(0.1, 2.0)), lab.NormTag.L1)
    B = lab.IndicatorFn(lab.box(lo, lo + rng.uniform(0.1, 2.0, n)))
    f, g = {"l1+box": (l1, B),
            "support+box": (lab.SupportFn(lab.box(
                lo2, lo2 + rng.uniform(0.0, 2.0, n))), B),
            "half_sq+l1": (lab.HalfSqNorm(n), l1)}[kind]
    return lab.add(lab.Subdifferential(pair=pair, f=f),
                   lab.Subdifferential(pair=pair, f=g))


def sum_records(lab):
    """(label, record) for each call of the library grid on 2-D and 3-D
    sums of functions (``make_sum``)."""
    for n in (2, 3):
        for j, norm in enumerate(NORMS):
            pair = lab.DualPair(n, lab.NormTag(norm))
            for k, kind in enumerate(SEPARABLE_SUMS + JOINT_SUMS):
                rng = np.random.default_rng([n, j, k])
                S = make_sum(lab, rng, pair, kind)
                X, Xs = S.graph_rows(LIBRARY_BUDGET, k)
                points = {"free": rng.uniform(-2.0, 2.0, (2, n)),
                          "graph": (X[0], Xs[0])}
                group = "separable" if kind in SEPARABLE_SUMS else "joint"
                for where, (x, xs) in points.items():
                    calls = {
                        "phi": lambda: lab.phi(S, x, xs, LIBRARY_BUDGET, k),
                        "fitz_membership": lambda: lab.fitz_membership(
                            S, xs, x, budget=LIBRARY_BUDGET, seed=k),
                        "phi_conj": lambda: lab.phi_conj(S, xs, x),
                    }
                    if group == "joint":
                        calls["contains"] = lambda: S.contains(x, xs)
                    for name, call in calls.items():
                        yield (f"{group}/{kind}/{norm}/{n}d/{where}/{name}",
                               record(call))


def lcp_records(lab):
    """(label, record) for each call of the library grid on the
    linear-map gap's LCP at large n: tail rows at their default probe,
    and psd+skew maps at a random probe and at the tied probe (0, 1)."""
    yield "lcp/tail", record(
        lambda: lab.tail_experiment(list(LCP_TAIL_SIZES)))
    n = LCP_DIM
    for j, norm in enumerate(("l1", "linf")):
        pair = lab.DualPair(n, lab.NormTag(norm))
        for seed in LIBRARY_SEEDS:
            rng = np.random.default_rng([n, j, seed])
            S = make_op(lab, rng, pair, "linear")
            probes = {"random": rng.uniform(-2.0, 2.0, (2, n)),
                      "tied": (np.zeros(n), np.ones(n))}
            for where, (x, xs) in probes.items():
                yield (f"lcp/linear/{norm}/{seed}/{where}",
                       record(lambda: lab.gap(
                           S, lab.GapQuery(lab.PairedPoint(x, xs)))))


def strong_max_records(lab):
    """(label, record) for each strong-maximality call of the library
    grid on 2-D monotone ``Linear`` maps B B'/2 + (K - K')/2, at w in
    [-1, 1]^2 against a box in [-1, 1]^2 as Wt (dual side) and as W at
    w* = w (primal side)."""
    for j, norm in enumerate(NORMS):
        pair = lab.DualPair(2, lab.NormTag(norm))
        for seed in STRONG_MAX_SEEDS:
            rng = np.random.default_rng([2, j, seed])
            B, K = rng.normal(size=(2, 2, 2))
            S = lab.Linear(pair=pair, M=0.5 * (B @ B.T + K - K.T))
            w = rng.uniform(-1.0, 1.0, 2)
            lo = rng.uniform(-1.0, 0.0, 2)
            hi = lo + rng.uniform(0.0, 1.0, 2)
            yield (f"strongmax/linear/{norm}/{seed}/dual", record(
                lambda: lab.strong_max_dual(
                    S, w, lab.box(lo, hi), LIBRARY_BUDGET,
                    seed)))
            yield (f"strongmax/linear/{norm}/{seed}/primal", record(
                lambda: lab.strong_max_primal(
                    S, lab.box(lo, hi), w, LIBRARY_BUDGET, seed)))


def fuzzy_hull_records(lab):
    """(label, record) for each fuzzy gap of the library grid against a
    hull of n + 2 random vertices: ``FUZZY_HULL_KINDS`` on the l1 and
    linf pairs at library seeds 1 and 2 (n = 2, 3), on the dual side at
    x and on the primal side at x*."""
    for seed in LIBRARY_SEEDS[1:]:
        n = 1 + seed
        for j, norm in enumerate(("l1", "linf")):
            pair = lab.DualPair(n, lab.NormTag(norm))
            for k, kind in enumerate(FUZZY_HULL_KINDS):
                rng = np.random.default_rng([n, j, k, seed])
                S = make_op(lab, rng, pair, kind)
                x, xs = rng.uniform(-2.0, 2.0, (2, n))
                W = make_set(lab, rng, n, "hull")
                Wt = make_set(lab, rng, n, "hull")
                label = f"fuzzy_hull/{kind}/{norm}/{seed}"
                yield f"{label}/dual", record(lambda: lab.fuzzy_gap_dual(
                    S, x, Wt, LIBRARY_BUDGET, seed))
                yield f"{label}/primal", record(lambda: lab.fuzzy_gap_primal(
                    S, W, xs, LIBRARY_BUDGET, seed))


def library_digest(lab, out_file=None) -> str:
    h = hashlib.sha256()
    for label, rec in itertools.chain(library_records(lab),
                                      sum_test_records(lab),
                                      sum_records(lab),
                                      lcp_records(lab),
                                      strong_max_records(lab),
                                      fuzzy_hull_records(lab)):
        line = json.dumps({"workload": "library", "label": label, **rec},
                          sort_keys=True) + "\n"
        h.update(line.encode())
        if out_file is not None:
            out_file.write(line)
    return h.hexdigest()


def digests(root: str, out_file=None) -> dict[str, str]:
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import monotone_lab
    import monotone_lab.cli  # noqa: F401  (the package does not import it)
    import workloads

    if not os.path.abspath(monotone_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported monotone_lab from {monotone_lab.__file__}")
    # a warning prints once per source line, so its text depends on the
    # line numbers of the checkout
    warnings.simplefilter("ignore")
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            h = hashlib.sha256()
            for seed in SEEDS:
                rounds = workloads.make_rounds(name, seed, ROUNDS)
                for r, ops in enumerate(rounds):
                    for i, op in enumerate(ops):
                        path = None
                        if op.scenario is not None:
                            path = os.path.join(tmp, f"{name}-{seed}-{r}-{i}"
                                                ".json")
                            with open(path, "w", encoding="utf-8") as fh:
                                json.dump(op.scenario, fh)
                        rec = {"workload": name, "seed": seed, "round": r,
                               "label": op.label, **run_op(op, monotone_lab,
                                                           path)}
                        line = json.dumps(rec, sort_keys=True) + "\n"
                        h.update(line.encode())
                        if out_file is not None:
                            out_file.write(line)
            result[name] = h.hexdigest()
    result["library"] = library_digest(monotone_lab, out_file)
    return result


VERDICTS = {"in", "out", "unknown", "yes", "no"}


def read_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def group_of(rec: dict) -> str:
    """The label a record is counted under: workload/label, with the
    seed of a library label (a number between slashes) as ``*``."""
    label = re.sub(r"(?<=/)\d+(?=/)", "*", rec["label"])
    return f"{rec['workload']}/{label}"


def as_number(v):
    """``v`` as a float where it is a JSON number or "inf"/"-inf"/"nan",
    else None."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if v in ("inf", "-inf", "nan"):
        return float(v)
    return None


def is_verdict(v) -> bool:
    return isinstance(v, bool) or (isinstance(v, str) and v in VERDICTS)


def moves(a, b, key: str = "", in_list: bool = False, out=None) -> list:
    """(kind, text) for each leaf where the JSON trees ``a`` and ``b``
    differ, and for each key one dict has and the other lacks; kind is
    status, value, verdict, keys (``+key`` added, ``-key`` removed) or
    other."""
    out = [] if out is None else out
    if isinstance(a, dict) and isinstance(b, dict):
        out += [("keys", f"-{k}") for k in sorted(a.keys() - b.keys())]
        out += [("keys", f"+{k}") for k in sorted(b.keys() - a.keys())]
        for k in a:
            if k in b:
                moves(a[k], b[k], k, False, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for u, v in zip(a, b):
            moves(u, v, key, True, out)
    elif a != b and not (a != a and b != b):  # two NaN leaves are equal
        x, y = as_number(a), as_number(b)
        if is_verdict(a) or is_verdict(b):
            out.append(("verdict", f"{key} {a}->{b}"))
        elif key.endswith("status"):
            out.append(("status", f"{key} {a}->{b}"))
        elif x is not None and y is not None and not in_list:
            way = "nan" if x != x or y != y else ("up" if y > x else "down")
            out.append(("value", f"{key} {way}"))
        else:
            out.append(("other", key or "record"))
    return out


def diff(path_a: str, path_b: str) -> int:
    """Prints which records moved between two ``--out`` files, per label;
    records are matched by position, and the files must list the same
    operations in the same order."""
    recs_a, recs_b = read_records(path_a), read_records(path_b)
    if len(recs_a) != len(recs_b):
        raise SystemExit(f"{len(recs_a)} records against {len(recs_b)}")
    totals = collections.Counter()
    changed = collections.Counter()
    kinds = collections.defaultdict(collections.Counter)
    for a, b in zip(recs_a, recs_b):
        group = group_of(a)
        if group != group_of(b):
            raise SystemExit(f"operations differ: {group} against "
                             f"{group_of(b)}")
        totals[group] += 1
        if a == b:
            continue
        changed[group] += 1
        # one count per record for each kind of move it shows
        for move in set(moves(a, b)):
            kinds[group][move] += 1
    for group in sorted(changed):
        print(f"{group}: {changed[group]} of {totals[group]} changed")
        for kind in ("status", "value", "verdict", "keys", "other"):
            found = sorted((text, n) for (k, text), n in kinds[group].items()
                           if k == kind)
            if found:
                print(f"  {kind}: " + ", ".join(f"{text} x{n}"
                                                 for text, n in found))
    print(f"{sum(changed.values())} of {len(recs_a)} records changed, "
          f"in {len(changed)} of {len(totals)} labels")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--root",
                      help="source checkout holding src/ and perfbench/")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"),
                      help="compare two --out files instead")
    ap.add_argument("--out", help="write the stripped outputs here")
    args = ap.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    root = os.path.abspath(args.root)
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext()) as fh:
        for name, digest in digests(root, fh).items():
            print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
