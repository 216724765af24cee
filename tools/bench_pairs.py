"""Alternated pairs of benchmark runs of two commits, with the wins.

    python3 tools/bench_pairs.py BASE CHANGE [--pairs N] [--seeds 11,12]
                                 [--workloads a,b] [--json FILE]

Run from the repository. Runs ``perfbench/run.py --trace 0`` for the
commits BASE and CHANGE in N pairs per workload (default: every
workload of CHANGE's ``BENCHMARK.json``, for its ``run_seconds``). Pair
i uses the i-th seed of ``--seeds`` (cycled), the same on both sides,
and runs BASE first in even pairs and CHANGE first in odd ones, so that
a drift of the host's speed falls on both sides alike. Each run works
in a fresh ``git archive`` of its commit, which holds no ``__pycache__``,
under ``PYTHONDONTWRITEBYTECODE=1``, so neither side loads bytecode that
the other compiles: a tree with current ``.pyc`` files sets up faster
and reads a different peak RSS than one without.

For each workload and end-to-end metric it prints each side's median
and quartiles, the change of the median in per cent, the pairs that
CHANGE wins (better in the metric's direction, from ``BENCHMARK.json``)
and whether the medians differ by more than BASE's interquartile range.
Two verdicts follow, the checks a gain and a regression must pass:
``claim met`` when CHANGE wins at least 9 pairs in 10 and its median is
better than BASE's by more than BASE's interquartile range, and
``WORSE`` when CHANGE's median is worse than BASE's by more than the
metric's ``bound`` (a fraction of BASE's median). It also flags a pair
whose sides attempted or failed different numbers of operations.
``--json FILE`` writes every run's metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def archive(commit: str, dest: str) -> None:
    """Writes the files of ``commit`` to the new directory ``dest``."""
    blob = subprocess.run(["git", "archive", commit],
                          check=True, capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_once(commit: str, workload: str, seed: int, seconds: int,
             workdir: str) -> dict:
    """One benchmark run in a fresh archive: the last line of its
    output, a JSON object with attempted, failed and metrics."""
    tree = tempfile.mkdtemp(dir=workdir)
    os.rmdir(tree)
    archive(commit, tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True)
    shutil.rmtree(tree)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(runs: dict, metrics: list[dict]) -> list[str]:
    """Lines of the table: per workload and metric, both sides' quartiles,
    the wins of the change, the median test, the claim rule and the
    bound."""
    lines = []
    for workload, pairs in runs.items():
        lines.append(f"{workload}: {len(pairs)} pairs")
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            a = [p["base"]["metrics"][name]["value"] for p in pairs]
            b = [p["change"]["metrics"][name]["value"] for p in pairs]
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            change = 100.0 * (b2 / a2 - 1.0) if a2 else float("nan")
            clear = abs(b2 - a2) > a3 - a1
            gain = a2 - b2 if lower else b2 - a2
            claim = 10 * wins >= 9 * len(pairs) and gain > a3 - a1
            worse = -gain > m["bound"] * abs(a2)
            lines.append(
                f"  {name:12s} base {a2:10.4g} [{a1:.4g}, {a3:.4g}]  "
                f"change {b2:10.4g} [{b1:.4g}, {b3:.4g}]  {change:+6.1f}%  "
                f"wins {wins}/{len(pairs)}  "
                f"{'beyond' if clear else 'within'} base IQR  "
                f"claim {'met' if claim else 'not met'}"
                + (f"  WORSE beyond the {m['bound']:.0%} bound"
                   if worse else ""))
        for i, p in enumerate(pairs):
            counts = [(p[s]["attempted"], p[s]["failed"])
                      for s in ("base", "change")]
            if counts[0] != counts[1]:
                lines.append(f"  pair {i} (seed {p['seed']}): attempted/"
                             f"failed {counts[0]} at base, {counts[1]} at "
                             "change")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="commit of the base side")
    ap.add_argument("change", help="commit of the change side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="11,12,13,14,15,16,17,18,19,20",
                    help="comma-separated seeds, cycled over the pairs")
    ap.add_argument("--workloads", default="",
                    help="comma-separated workloads (default: all)")
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args(argv)
    bench = json.loads(subprocess.run(
        ["git", "show", f"{args.change}:BENCHMARK.json"],
        check=True, capture_output=True, text=True).stdout)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                pair = {"seed": seed}
                for side in order:
                    commit = args.base if side == "base" else args.change
                    pair[side] = run_once(commit, workload, seed,
                                          bench["run_seconds"], workdir)
                runs[workload].append(pair)
                print(f"pair {i} seed {seed} {workload} done",
                      file=sys.stderr, flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    print("\n".join(summary(runs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
