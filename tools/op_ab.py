"""Two source trees timed op by op in one process, with the change in
the median, the tail and the total.

    python3 tools/op_ab.py BASE_TREE CHANGE_TREE --workload W
                           [--seeds 1,2] [--passes N]

Loads the ``monotone_lab`` package of each tree (``TREE/src``) into one
process under its own name, and builds the workload's rounds from
CHANGE_TREE's ``perfbench/workloads.py`` for each seed: as many rounds
as a timed benchmark run of ``run_seconds`` (from its ``BENCHMARK.json``)
makes. Each pass runs every op of those rounds on both sides, BASE first
on even ops and CHANGE first on odd ones. As in ``perfbench/run.py``,
whose ``execute``, ``kernel_s`` and ``host_speed`` it calls, the fixed
kernel runs between consecutive calls, and each time is divided by the
host's speed around it. Only ops that succeed on both sides are
timed.

It prints each label's median per side, the change of the workload's
median op time, of its tail percentile (the benchmark's, from
``TAIL_PERCENTILE``) and of the total, and how many ops give outputs
that differ between the sides once ``elapsed_s`` is stripped. A noise
floor is a run of a tree against a copy of itself. It reads the files
under ``perfbench/`` and edits none; scenario files go to a temporary
directory that is deleted at the end.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as run.py

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

SIDES = ("base", "change")


def load_package(tree: str, name: str):
    """The ``monotone_lab`` package of ``tree``, with its ``cli``,
    imported under ``name``."""
    src = os.path.join(tree, "src", "monotone_lab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    importlib.import_module(name + ".cli")
    return mod


def load_module(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def stripped(result, error: str) -> str:
    """An op's output as JSON text: a report with every ``elapsed_s``
    removed, a library call's value field by field, or the error."""
    if error:
        return json.dumps({"error": error})
    if isinstance(result, str):
        result = json.loads(result)
        for task in result.get("tasks", []):
            task.pop("elapsed_s", None)
    return json.dumps(result, default=_fields, sort_keys=True)


def _fields(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj)}
    return obj.tolist()  # a numpy array or scalar


def _change(a: float, b: float) -> str:
    return f"{100.0 * (b / a - 1.0):+6.1f}%" if a else "   n/a"


def summary(ops: list[tuple[str, float, float]], pct: int) -> list[str]:
    """Lines of the table over ``ops``, one (label, base ms, change ms)
    per op timed on both sides: each label's medians, then the medians,
    the ``pct`` percentiles and the totals over every op."""
    by_label: dict[str, list[tuple[float, float]]] = {}
    for label, a, b in ops:
        by_label.setdefault(label, []).append((a, b))
    lines = [f"{'label':28s} {'ops':>5s} {'base ms':>9s} {'change ms':>9s}"]
    for label, pairs in sorted(by_label.items()):
        a, b = (statistics.median(p[k] for p in pairs) for k in (0, 1))
        lines.append(f"{label:28s} {len(pairs):5d} {a:9.4f} {b:9.4f} "
                     f"{_change(a, b)}")
    sides = [[op[k] for op in ops] for k in (1, 2)]
    for name, stat in (
            ("median", statistics.median),
            (f"p{pct}", lambda xs: statistics.quantiles(
                xs, n=100, method="inclusive")[pct - 1]),
            ("total", sum)):
        a, b = (stat(xs) for xs in sides)
        lines.append(f"{name:28s} {len(ops):5d} {a:9.4f} {b:9.4f} "
                     f"{_change(a, b)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="source tree of the base side")
    ap.add_argument("change", help="source tree of the change side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2",
                    help="comma-separated seeds of the rounds")
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    bench_dir = os.path.join(args.change, "perfbench")
    sys.path.insert(0, bench_dir)
    run = load_module(os.path.join(bench_dir, "run.py"), "_bench_run")
    import workloads

    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    labs = {side: load_package(getattr(args, side), f"_lab_{side}")
            for side in SIDES}
    n_rounds = run.timed_rounds(args.workload, seconds)
    ops, outputs, failed = [], {}, dict.fromkeys(SIDES, 0)
    with tempfile.TemporaryDirectory() as tmp:
        plan = []
        for seed in (int(s) for s in args.seeds.split(",")):
            for r, round_ops in enumerate(workloads.make_rounds(
                    args.workload, seed, n_rounds)):
                for i, op in enumerate(round_ops):
                    if op.scenario is not None:
                        path = os.path.join(tmp, f"{seed}-{r}-{i}.json")
                        with open(path, "w", encoding="utf-8") as fh:
                            json.dump(op.scenario, fh)
                        op.argv = [path if a == "{scenario}" else a
                                   for a in op.argv]
                    plan.append(op)
        kernel = run.kernel_s()
        for p in range(args.passes):
            for k, op in enumerate(plan):
                ms, errors = {}, {}
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    dt, result, errors[side] = run.execute(op, labs[side])
                    after = run.kernel_s()
                    ms[side] = 1e3 * dt / run.host_speed(kernel, after)
                    kernel = after
                    if p == 0:
                        outputs[k, side] = stripped(result, errors[side])
                for side in SIDES:
                    failed[side] += bool(errors[side])
                if not any(errors.values()):
                    ops.append((op.label, ms["base"], ms["change"]))
    differ = sum(outputs[k, "base"] != outputs[k, "change"]
                 for k in range(len(plan)))
    print(f"{args.workload}: seeds {args.seeds}, {args.passes} passes of "
          f"{len(plan)} ops")
    print("\n".join(summary(ops, run.TAIL_PERCENTILE[args.workload])))
    print(f"outputs that differ once elapsed_s is stripped: {differ} of "
          f"{len(plan)} ops")
    print("failed calls: " + ", ".join(f"{side} {failed[side]}"
                                       for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
