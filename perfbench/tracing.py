"""Per-layer tracing of monotone_lab from outside the package.

``Tracer.install`` replaces the public functions and methods of each layer
with wrappers, at every name a caller looks them up by: module globals
such as ``sets.nearest_hull_point`` and ``harness.subgradient_descent``,
and the methods on each class that defines them. ``Tracer.restore`` puts
the original objects back. Nothing under ``src/`` is edited.

A wrapper records a span (name, start, end, parent) in memory. Self time
is a span's duration minus the durations of its direct children. Leaf
functions that run ~1e5 times per run (norms, simplex projection) and the
inner-solver callbacks get counts only.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

RESOLVENT_VARIANTS = ("FiniteGraph", "Linear", "Subdifferential", "NormalCone",
                      "SupportSubdiff", "Shift", "SumOp", "InverseOp")
PROX_KINDS = ("Quadratic", "NormFn", "SupportFn", "IndicatorFn", "Affine",
              "HalfSqNorm", "Translate", "SumFn")
SET_KINDS = ("Polytope", "Ball", "Capsule")
GAP_METHODS = ("enumeration", "resolvent", "subgradient_descent")
# ratio metrics: (counter, base counter, unit); 0 when the base never ran
RATIOS = {
    "solvers.hull.m2d1_share": ("solvers.hull.m2d1", "solvers.hull.calls",
                                "ratio"),
    "br.dr_per_call": ("br.dr_calls", "br.calls", "calls/call"),
    "fitzpatrick.membership.decisive_share": (
        "fitzpatrick.membership.decisive", "fitzpatrick.membership.calls",
        "ratio"),
    "quasidensity.gap.exact_share": ("quasidensity.gap.exact",
                                     "quasidensity.gap.calls", "ratio"),
    "classifiers.window.vacuous_share": ("classifiers.window.vacuous",
                                         "classifiers.window.calls", "ratio"),
}


class Tracer:
    """Spans and counters for one traced pass; install, run, restore."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.depth: Counter = Counter()
        self.counts: Counter = Counter()
        self.patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn: Callable,
             after: Callable[..., None] | None = None,
             before: Callable[..., tuple] | None = None) -> Callable:
        """Wraps ``fn`` in a span. ``before(args, kwargs)`` may replace
        the arguments; ``after(args, result)`` updates counters."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, depth = self._stack, self.depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            depth[name] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                depth[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable,
                nested: tuple[str, str] | None = None) -> Callable:
        """Wraps ``fn`` with a call counter and no span; ``nested`` =
        (span name, key) also counts calls made inside that span."""
        counts, depth = self.counts, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if nested is not None and depth[nested[0]]:
                counts[nested[1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, new: Any) -> None:
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, lab_modules: list, module: Any, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        """Replaces ``module.attr`` at every module global that holds it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in lab_modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapped)

    def patch_method(self, classes: list[type], attr: str,
                     make: Callable[[Callable], Callable]) -> None:
        """Replaces ``attr`` on each class of ``classes`` that defines it."""
        for cls in classes:
            if attr in cls.__dict__:
                self._set(cls, attr, make(cls.__dict__[attr]))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- the layers --------------------------------------------------------

    def install(self, lab: Any) -> None:
        """Wraps the public surface of each monotone_lab layer."""
        import sys

        mods = [m for n, m in sorted(sys.modules.items())
                if n == "monotone_lab" or n.startswith("monotone_lab.")]
        c, d = self.counts, self.depth
        fn_ = self.patch_function

        def count_leaf(key, nested=None):
            return lambda f: self.counted(key, f, nested)

        fn_(mods, lab.spaces, "vector_norm", count_leaf("spaces.norm.calls"))
        fn_(mods, lab.spaces, "norm_subgradient",
            count_leaf("spaces.norm_subgradient.calls"))
        fn_(mods, lab.solvers, "project_simplex",
            count_leaf("solvers.project_simplex.calls",
                       ("solvers.hull", "solvers.hull.iters")))

        def hull_after(args, result):
            c["solvers.hull.calls"] += 1
            if np.shape(args[0]) == (2, 1):
                c["solvers.hull.m2d1"] += 1

        fn_(mods, lab.solvers, "nearest_hull_point",
            lambda f: self.span("solvers.hull", f, hull_after))

        def wrap_callback(index, kw, key):
            def before(args, kwargs):
                if kw in kwargs:
                    kwargs = dict(kwargs)
                    kwargs[kw] = self.counted(key, kwargs[kw])
                else:
                    args = list(args)
                    args[index] = self.counted(key, args[index])
                    args = tuple(args)
                return args, kwargs
            return before

        def subgrad_after(args, result):
            c["solvers.subgrad.calls"] += 1

        fn_(mods, lab.solvers, "subgradient_descent",
            lambda f: self.span("solvers.subgrad", f, subgrad_after,
                                wrap_callback(1, "subgrad",
                                              "solvers.subgrad.steps")))

        def dr_after(args, result):
            c["solvers.dr.calls"] += 1
            if not result[2]:
                c["solvers.dr.unconverged"] += 1
            if d["br"]:
                c["br.dr_calls"] += 1

        fn_(mods, lab.solvers, "douglas_rachford",
            lambda f: self.span("solvers.dr", f, dr_after,
                                wrap_callback(1, "prox_b",
                                              "solvers.dr.iters")))

        def lp_after(args, result):
            c["solvers.lp.calls"] += 1

        fn_(mods, lab.fitzpatrick, "linprog",
            lambda f: self.span("solvers.lp", f, lp_after))

        # sets: projection per set kind, distance per norm
        def project_after(args, result):
            c[f"sets.project.calls.{type(args[0]).__name__}"] += 1

        sets_classes = [lab.sets.CompactConvexSet, lab.Polytope, lab.Ball,
                        lab.Capsule]
        self.patch_method(sets_classes, "project",
                          lambda f: self.span("sets.project", f,
                                              project_after))

        def dist_before(args, kwargs):
            if not d["sets.dist"]:  # Ball.dist defers to the base class
                norm = kwargs.get("norm", args[2] if len(args) > 2
                                  else lab.NormTag.L2)
                c[f"sets.dist.calls.{norm.value}"] += 1
            return args, kwargs

        self.patch_method(sets_classes, "dist",
                          lambda f: self.span("sets.dist", f,
                                              before=dist_before))

        # operators: resolvent per variant, graph samples
        op_classes = [lab.MonotoneOperator, lab.FiniteGraph, lab.Linear,
                      lab.Subdifferential, lab.NormalCone, lab.SupportSubdiff,
                      lab.Shift, lab.SumOp, lab.InverseOp]

        def make_resolvent(f):
            inner = self.span("operators.resolvent", f)

            @functools.wraps(f)
            def wrapper(obj, *args, **kwargs):
                c[f"operators.resolvent.calls.{type(obj).__name__}"] += 1
                try:
                    return inner(obj, *args, **kwargs)
                except lab.ResolventError:
                    c["operators.resolvent.errors"] += 1
                    raise
            return wrapper

        self.patch_method(op_classes, "resolvent_scaled", make_resolvent)

        def sample_before(args, kwargs):
            if not d["operators.graph_sample"]:
                c["operators.graph_sample.outer"] += 1
            return args, kwargs

        def sample_after(args, result):
            if not d["operators.graph_sample"]:
                c["operators.graph_sample.points"] += len(result)

        self.patch_method(op_classes, "graph_sample",
                          lambda f: self.span("operators.graph_sample", f,
                                              sample_after, sample_before))

        # functions: prox per kind, inexact conjugates, minimize
        fn_classes = [lab.ConvexFn, lab.Quadratic, lab.NormFn, lab.SupportFn,
                      lab.IndicatorFn, lab.Affine, lab.HalfSqNorm,
                      lab.Translate, lab.SumFn]

        def prox_after(args, result):
            c[f"functions.prox.calls.{type(args[0]).__name__}"] += 1

        self.patch_method(fn_classes, "prox_lam",
                          lambda f: self.span("functions.prox", f,
                                              prox_after))

        def conj_after(args, result):
            c["functions.conjugate.calls"] += 1
            if not result.exact:
                c["functions.conjugate.inexact"] += 1

        self.patch_method(fn_classes, "conjugate",
                          lambda f: self.span("functions.conjugate", f,
                                              conj_after))
        fn_(mods, lab.functions, "minimize",
            lambda f: self.span("functions.minimize", f))

        # br: the four constructive procedures share one layer name
        def br_before(args, kwargs):
            if not d["br"]:
                c["br.calls"] += 1
            return args, kwargs

        for attr in ("br_point", "br_corollary", "van_point",
                     "quasidense_witness"):
            fn_(mods, lab.br, attr,
                lambda f: self.span("br", f, before=br_before))

        # fitzpatrick
        def phi_after(args, result):
            c[f"fitzpatrick.phi.calls.{result.status}"] += 1

        fn_(mods, lab.fitzpatrick, "phi",
            lambda f: self.span("fitzpatrick.phi", f, phi_after))
        fn_(mods, lab.fitzpatrick, "phi_conj",
            lambda f: self.span("fitzpatrick.phi_conj", f))

        def membership_after(args, result):
            c["fitzpatrick.membership.calls"] += 1
            if result in ("in", "out"):
                c["fitzpatrick.membership.decisive"] += 1

        fn_(mods, lab.fitzpatrick, "fitz_membership",
            lambda f: self.span("fitzpatrick.membership", f,
                                membership_after))

        # quasidensity
        def gap_after(args, result):
            c[f"quasidensity.gap.calls.{result.method}"] += 1
            c["quasidensity.gap.calls"] += 1
            if result.status == "exact":
                c["quasidensity.gap.exact"] += 1

        fn_(mods, lab.quasidensity, "gap",
            lambda f: self.span("quasidensity.gap", f, gap_after))

        # classifiers: the two windowed checks
        def window_after(args, result):
            c["classifiers.window.calls"] += 1
            if result.vacuous:
                c["classifiers.window.vacuous"] += 1

        for attr in ("check_fpv", "check_fp"):
            fn_(mods, lab.classifiers, attr,
                lambda f: self.span("classifiers.window", f, window_after))

        # harness and cli
        fn_(mods, lab.harness, "parse_scenario",
            lambda f: self.span("harness.parse", f))
        fn_(mods, lab.harness, "run_scenario",
            lambda f: self.span("harness.run", f))
        for attr in ("report_json", "report_csv"):
            fn_(mods, lab.harness, attr,
                lambda f: self.span("harness.report", f))
        fn_(mods, lab.cli, "main", lambda f: self.span("cli.main", f))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        if not len(self.start):
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Writes every span: names[name_id], parent index, start, end."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))

    def metrics(self, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, each as (value, unit); self times are
        multiplied by ``scale``."""
        c = self.counts
        own = {k: v * scale for k, v in self.self_times().items()}
        out: dict[str, tuple[float, str]] = {}

        def count(name, key=None):
            out[name] = (float(c[key or name]), "count")

        def ratio(name):
            part, whole, unit = RATIOS[name]
            out[name] = (c[part] / c[whole] if c[whole] else 0.0, unit)

        def self_s(stem):
            out[f"{stem}.self_s"] = (own.get(stem, 0.0), "s")

        count("solvers.hull.calls")
        count("solvers.hull.iters")
        self_s("solvers.hull")
        ratio("solvers.hull.m2d1_share")
        for kind in SET_KINDS:
            count(f"sets.project.calls.{kind}")
        self_s("sets.project")
        for norm in ("l2", "l1", "linf"):
            count(f"sets.dist.calls.{norm}")
        count("solvers.subgrad.calls")
        count("solvers.subgrad.steps")
        self_s("solvers.subgrad")
        count("spaces.norm.calls")
        count("spaces.norm_subgradient.calls")
        for variant in RESOLVENT_VARIANTS:
            count(f"operators.resolvent.calls.{variant}")
        self_s("operators.resolvent")
        count("operators.resolvent.errors")
        count("operators.graph_sample.points")
        self_s("operators.graph_sample")
        for kind in PROX_KINDS:
            count(f"functions.prox.calls.{kind}")
        self_s("functions.prox")
        count("functions.conjugate.inexact")
        self_s("functions.minimize")
        count("solvers.dr.calls")
        count("solvers.dr.iters")
        count("solvers.dr.unconverged")
        self_s("solvers.dr")
        ratio("br.dr_per_call")
        self_s("br")
        count("fitzpatrick.phi.calls.exact")
        count("fitzpatrick.phi.calls.lower_bound")
        self_s("fitzpatrick.phi")
        ratio("fitzpatrick.membership.decisive_share")
        count("solvers.lp.calls")
        self_s("solvers.lp")
        for method in GAP_METHODS:
            count(f"quasidensity.gap.calls.{method}")
        self_s("quasidensity.gap")
        ratio("quasidensity.gap.exact_share")
        count("classifiers.window.calls")
        self_s("classifiers.window")
        ratio("classifiers.window.vacuous_share")
        self_s("harness.parse")
        self_s("harness.run")
        self_s("harness.report")
        self_s("cli.main")
        return out

    def absent(self) -> dict[str, str]:
        """Why a ratio reads 0: its base never ran."""
        return {name: f"no {base} in this workload"
                for name, (_, base, _) in RATIOS.items()
                if not self.counts[base]}
