"""The summary of ``tools/bench_pairs.py``: each side's quartiles, the
pairs the change wins in each metric's direction, and the median test
against the base side's interquartile range."""

import importlib.util
import os

BENCH_PAIRS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "bench_pairs.py")


def _load():
    spec = importlib.util.spec_from_file_location("_bench_pairs",
                                                  BENCH_PAIRS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(p50, rps, failed=0):
    return {"attempted": 64, "failed": failed,
            "metrics": {"op_p50_ms": {"value": p50},
                        "ops_per_s": {"value": rps}}}


METRICS = [{"name": "op_p50_ms", "better": "lower"},
           {"name": "ops_per_s", "better": "higher"}]


def test_wins_follow_each_metrics_direction():
    base = [(1.0, 100.0), (1.2, 90.0), (1.1, 95.0), (0.9, 105.0)]
    change = [(0.8, 120.0), (1.0, 80.0), (0.9, 110.0), (0.95, 100.0)]
    runs = {"w": [{"seed": i, "base": _run(*a), "change": _run(*b)}
                  for i, (a, b) in enumerate(zip(base, change))]}
    p50, rps = _load().summary(runs, METRICS)[1:]
    assert p50.split()[:2] == ["op_p50_ms", "base"]
    # op_p50_ms: lower wins in 3 of 4 pairs; medians 1.05 and 0.925
    # differ by 0.125, inside the base's IQR 1.125 - 0.975 = 0.15
    assert "wins 3/4" in p50 and "within base IQR" in p50
    assert "-11.9%" in p50
    # ops_per_s: higher wins in 2 of 4 pairs
    assert "wins 2/4" in rps


def test_a_pair_with_other_failures_is_flagged():
    runs = {"w": [{"seed": 7, "base": _run(1.0, 1.0),
                   "change": _run(0.5, 2.0, failed=1)}]}
    lines = _load().summary(runs, METRICS)
    assert "beyond base IQR" in lines[1]
    assert lines[-1] == ("  pair 0 (seed 7): attempted/failed (64, 0) at "
                         "base, (64, 1) at change")
