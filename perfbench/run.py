"""End-to-end and per-layer benchmark of monotone_lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. ``--trace 0`` times a fixed number of the workload's rounds of
operations, sized to take about S seconds at reference host speed, and
prints the end-to-end metrics. ``--trace 1`` runs a fixed number of rounds
twice, untraced and then through the outside wrappers of ``tracing.py``,
and prints the per-layer metrics and the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. Workloads, op mixes and predictions: ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import os

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:  # before numpy loads, so BLAS starts one thread
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Seconds one pair of rounds takes at reference host speed (measured on a
# 2-vCPU Intel Xeon VM). A timed run executes round(--seconds / PAIR_REF_S)
# pairs, at least one: a fixed amount of work for a seed rather than as
# many rounds as fit in the time, so that attempted and failed are the
# same on every run with that seed (whether an operation fails depends
# on its round, and which rounds fit would depend on the host's speed).
PAIR_REF_S = {"classify-windows": 12.8, "linear-gap-l1": 7.9,
              "cli-mix": 6.0}
# rounds of each traced run: fixed, so every count repeats for a seed
TRACE_ROUNDS = {"classify-windows": 2, "linear-gap-l1": 2, "cli-mix": 2}
SETUP_PROBES = 3
TAIL_BEYOND = 10
# Tail percentile per workload, fixed so that runs of different lengths
# report the same one. Each keeps TAIL_BEYOND successful ops beyond it in
# a 25 s run and falls inside a band of similar ops rather than
# at the edge between two op kinds, where it would jump between them.
TAIL_PERCENTILE = {"classify-windows": 75, "linear-gap-l1": 80,
                   "cli-mix": 86}
# The host's speed drifts by up to 1.5x for tens of seconds at a time
# (measured on a 2-vCPU Intel Xeon VM; another tenant on the same core).
# Each timing is divided by the host's speed around it: the time a fixed
# kernel takes just before and just after, over KERNEL_REF_S, the
# kernel's typical time on that VM.
KERNEL_REF_S = 1.0e-3


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# set-up: import, generate, parse


def check_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "monotone_lab", "__init__.py")):
        fail(f"no monotone_lab sources under {SRC}; run from a checkout")


def import_lab():
    check_sources()
    sys.path.insert(0, SRC)
    import monotone_lab
    import monotone_lab.cli  # noqa: F401  (the package does not import it)

    if not os.path.abspath(monotone_lab.__file__).startswith(SRC + os.sep):
        fail(f"imported monotone_lab from {monotone_lab.__file__}")
    return monotone_lab


def timed_rounds(workload: str, seconds: int) -> int:
    return 2 * max(1, round(seconds / PAIR_REF_S[workload]))


def set_up(workload: str, seed: int, seconds: int, workdir: str):
    """Imports the program, generates the rounds and writes and parses
    each scenario file. Returns (monotone_lab, rounds)."""
    lab = import_lab()
    import workloads

    n_rounds = max(TRACE_ROUNDS[workload], timed_rounds(workload, seconds))
    rounds = workloads.make_rounds(workload, seed, n_rounds)
    scen_dir = os.path.join(workdir, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)
    for r, ops in enumerate(rounds):
        for i, op in enumerate(ops):
            if op.scenario is None:
                continue
            path = os.path.join(scen_dir, f"r{r}-{i}.json")
            text = json.dumps(op.scenario)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            lab.harness.parse_scenario(json.loads(text))
            op.argv = [path if a == "{scenario}" else a for a in op.argv]
    return lab, rounds


_KERNEL_G = [[2.0, 0.5], [0.5, 1.0]]


def kernel_s() -> float:
    """Best of three timings of a fixed kernel of small numpy calls in a
    Python loop, the instruction mix of the program's inner loops."""
    import numpy as np

    G = np.array(_KERNEL_G)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        v = np.array([0.3, -0.2])
        for _ in range(100):
            v = np.clip(v - 0.1 * (G @ v - 1.0), -1.0, 1.0)
            float(np.abs(v).sum())
        best = min(best, time.perf_counter() - t0)
    return best


def host_speed(before: float, after: float) -> float:
    return (before + after) / (2.0 * KERNEL_REF_S)


def measure_setup(args) -> list[tuple[float, float]]:
    """(seconds, host speed) from spawning a fresh process to the end of
    its set-up, for SETUP_PROBES processes run one after another."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(SETUP_PROBES):
        k0 = kernel_s()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line.strip() != "ready" or rc != 0:
            fail(f"set-up probe failed (exit {rc})")
        times.append((t1 - t0, host_speed(k0, kernel_s())))
    return times


# ---------------------------------------------------------------------------
# operations


def execute(op, lab) -> tuple[float, object, str]:
    """One timed call into the program: (seconds, result, error). The
    result is the report text or the library call's value; error is
    empty unless the call raised or exited with a non-zero code."""
    if op.call is not None:
        t0 = time.perf_counter()
        try:
            result = op.call(lab)
        except Exception as exc:  # counted as a failed operation
            return time.perf_counter() - t0, None, f"{type(exc).__name__}: " \
                                                     f"{exc}"
        return time.perf_counter() - t0, result, ""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lab.cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # counted as a failed operation
            return (time.perf_counter() - t0, None,
                    f"{type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    if rc != 0:
        return dt, None, f"exit {rc}: {err.getvalue().strip()[:200]}"
    return dt, out.getvalue(), ""


class Tally:
    """Outcomes and latencies of the operations of one pass.

    An operation fails when it raises, exits non-zero, prints a report
    that is not strict JSON, or fails its check. Only an output that
    contradicts its reference is a wrong answer, which makes the run
    incorrect; the others are failures with true but unusable output.
    """

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0
        # seconds at reference host speed, of successful operations
        self.latencies: list[float] = []
        # time inside program calls, all operations: at reference speed,
        # and as measured
        self.busy_s = self.raw_busy_s = 0.0
        self.speeds: list[float] = []
        self._kernel = 0.0
        self.gap_bounds: list[float] = []
        self.failures: dict[str, str] = {}
        self.by_label: dict[str, list[float]] = {}

    def run(self, op, lab, workloads) -> None:
        self.attempted += 1
        before = self._kernel or kernel_s()
        dt, result, error = execute(op, lab)
        self._kernel = kernel_s()
        speed = host_speed(before, self._kernel)
        self.speeds.append(speed)
        self.raw_busy_s += dt
        dt /= speed
        self.busy_s += dt
        if not error and op.call is None:
            try:
                result = workloads.parse_report(result)
            except ValueError as exc:
                error = f"report is not strict JSON: {exc}"
        if not error:
            try:
                op.check(result)
            except workloads.Inconclusive as exc:
                error = f"inconclusive: {exc}"
            except (workloads.CheckFailed, LookupError, TypeError,
                    ValueError) as exc:
                self.wrong += 1
                error = f"wrong: {exc!r}"
        if error:
            self.failed += 1
            self.failures.setdefault(op.label, error)
            return
        self.latencies.append(dt)
        self.by_label.setdefault(op.label, []).append(dt)
        if op.zero_gap:
            for task in result["tasks"]:
                for rec in task["records"]:
                    self.gap_bounds.append(
                        float(rec.get("value", rec.get("gap_bound"))))


def tail_latency(lat: list[float], pct: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the workload's tail
    percentile, lowered if needed so that TAIL_BEYOND samples lie
    beyond it; linear interpolation between order statistics."""
    n = len(lat)
    pct = min(pct, math.floor(100.0 * (n - TAIL_BEYOND) / n))
    if pct < 50:
        return max(lat), 100.0, 0
    value = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]
    return value, float(pct), sum(x > value for x in lat)


def stray_files(tmpdir: str) -> int:
    return sum(len(files) for _, _, files in os.walk(tmpdir))


def clear_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "thread_pins": {v: os.environ[v] for v in THREAD_PINS},
        "load": "one process, one thread, closed loop",
    }


# ---------------------------------------------------------------------------
# runs


def timed_run(args, lab, rounds, workloads, tmpdir):
    """The first timed_rounds() rounds: whole pairs, so every run
    measures the workload's exact op mix (on- and off-graph probes
    alternate between the two rounds of a pair)."""
    tally = Tally()
    n_rounds = timed_rounds(args.workload, args.seconds)
    start = time.perf_counter()
    for ops in rounds[:n_rounds]:
        for op in ops:
            tally.run(op, lab, workloads)
    wall = time.perf_counter() - start
    return tally, wall, n_rounds, stray_files(tmpdir)


def end_to_end(tally, setup_probes, workload) -> tuple[dict, dict]:
    lat_ms = [x * 1000.0 for x in tally.latencies]
    if not lat_ms:
        fail("no operation succeeded")
    tail, pct, beyond = tail_latency(lat_ms, TAIL_PERCENTILE[workload])
    setup_times = [t / speed for t, speed in setup_probes]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat_ms) / tally.busy_s, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {"op_tail_ms": f"p{pct:.0f} of {len(lat_ms)} successful ops, "
                           f"{beyond} beyond it",
             "setup_s": f"median of {len(setup_times)} fresh processes; "
                        "as measured: " + ", ".join(
                            f"{t:.3f}" for t, _ in setup_probes),
             "ops_per_s": f"as measured: "
                          f"{len(lat_ms) / tally.raw_busy_s:.4g}",
             "host_speed": "median time of the kernel over its reference: "
                           f"{statistics.median(tally.speeds):.3f}"}
    return metrics, notes


def traced_run(args, lab, rounds, workloads, tmpdir, stem):
    import tracing

    ops = [op for ops in rounds[:TRACE_ROUNDS[args.workload]] for op in ops]
    plain = Tally()
    for op in ops:
        plain.run(op, lab, workloads)
    clear_dir(tmpdir)
    tracer = tracing.Tracer()
    traced = Tally()
    tracer.install(lab)
    try:
        for op in ops:
            traced.run(op, lab, workloads)
    finally:
        tracer.restore()
    tracer.save(stem + "-spans.npz")
    # self times at reference host speed, like every other timing
    metrics = tracer.metrics(scale=traced.busy_s / traced.raw_busy_s)
    over = traced.busy_s - plain.busy_s
    metrics["trace.overhead_s"] = (over, "s")
    metrics["trace.overhead_share"] = (over / plain.busy_s, "ratio")
    metrics["cli.stray_tmpfiles"] = (float(stray_files(tmpdir)), "count")
    metrics["quasidensity.gap.bound_max"] = (
        max(traced.gap_bounds) if traced.gap_bounds else 0.0, "1")
    absent = tracer.absent()
    if not traced.gap_bounds:
        absent["quasidensity.gap.bound_max"] = "no gap with a known zero " \
                                               "value in this workload"
    notes = {"untraced_s": plain.busy_s, "traced_s": traced.busy_s,
             "traced_s_as_measured": traced.raw_busy_s,
             "ops_per_pass": len(ops), "absent": absent}
    return plain, traced, metrics, notes


def report(result: dict, metrics: dict, notes: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}")
    print("environment " + json.dumps(result["environment"]))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:42s} {value:>14.6g} {unit:8s} {note}")
    for key, value in notes.items():
        if key not in metrics:
            print(f"  {key}: {value}")
    print(f"  attempted {result['attempted']} failed {result['failed']} "
          f"(wrong answers {result['wrong']})")
    for label, why in result["failures"].items():
        print(f"  failed op {label}: {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up in a fresh process, print 'ready', exit "
                         "(used to time set-up)")
    args = ap.parse_args(argv)
    check_sources()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    rundir = os.path.join(OUT, f"run-{os.getpid()}")
    tmpdir = os.path.join(rundir, "tmp")
    clear_dir(tmpdir)
    os.environ["TMPDIR"] = tmpdir
    tempfile.tempdir = None  # the program's temp files land in tmpdir
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, args.seconds, rundir)
            print("ready", flush=True)
            return 0
        setup_times = [] if args.trace else measure_setup(args)
        lab, rounds = set_up(args.workload, args.seed, args.seconds, rundir)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
        if args.trace:
            plain, tally, metrics, notes = traced_run(
                args, lab, rounds, workloads, tmpdir, stem)
            attempted = plain.attempted + tally.attempted
            failed = plain.failed + tally.failed
            wrong = plain.wrong + tally.wrong
        else:
            tally, wall, n_rounds, strays = timed_run(
                args, lab, rounds, workloads, tmpdir)
            metrics, notes = end_to_end(tally, setup_times, args.workload)
            notes.update(wall_s=wall, rounds=n_rounds, stray_tmpfiles=strays,
                         median_ms_by_op={
                             k: [len(v), round(1e3 * statistics.median(v), 3)]
                             for k, v in sorted(tally.by_label.items())})
            if tally.gap_bounds:
                notes["gap_bound_max"] = max(tally.gap_bounds)
            attempted, failed, wrong = (tally.attempted, tally.failed,
                                        tally.wrong)
        result = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "environment": environment(), "attempted": attempted,
                  "failed": failed, "wrong": wrong,
                  "failures": tally.failures, "notes": notes,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        report(result, metrics, notes)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
