"""The summary of ``tools/bench_pairs.py``: each side's quartiles, the
pairs the change wins in each metric's direction, the median test
against the base side's interquartile range, the claim rule and each
metric's bound; and that of ``tools/op_ab.py``: per-label medians and
the change in the median, the tail percentile and the total."""

import dataclasses
import importlib.util
import os

import numpy as np

TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load(name="bench_pairs"):
    spec = importlib.util.spec_from_file_location(
        f"_{name}", os.path.join(TOOLS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(p50, rps, failed=0):
    return {"attempted": 64, "failed": failed,
            "metrics": {"op_p50_ms": {"value": p50},
                        "ops_per_s": {"value": rps}}}


METRICS = [{"name": "op_p50_ms", "better": "lower", "bound": 0.25},
           {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def _pairs(base, change):
    return {"w": [{"seed": i, "base": _run(*a), "change": _run(*b)}
                  for i, (a, b) in enumerate(zip(base, change))]}


def test_wins_follow_each_metrics_direction():
    base = [(1.0, 100.0), (1.2, 90.0), (1.1, 95.0), (0.9, 105.0)]
    change = [(0.8, 120.0), (1.0, 80.0), (0.9, 110.0), (0.95, 100.0)]
    p50, rps = _load().summary(_pairs(base, change), METRICS)[1:]
    assert p50.split()[:2] == ["op_p50_ms", "base"]
    # op_p50_ms: lower wins in 3 of 4 pairs; medians 1.05 and 0.925
    # differ by 0.125, inside the base's IQR 1.125 - 0.975 = 0.15
    assert "wins 3/4" in p50 and "within base IQR" in p50
    assert "-11.9%" in p50
    # ops_per_s: higher wins in 2 of 4 pairs
    assert "wins 2/4" in rps
    for line in (p50, rps):
        assert "claim not met" in line and "WORSE" not in line


def test_a_pair_with_other_failures_is_flagged():
    runs = {"w": [{"seed": 7, "base": _run(1.0, 1.0),
                   "change": _run(0.5, 2.0, failed=1)}]}
    lines = _load().summary(runs, METRICS)
    assert "beyond base IQR" in lines[1]
    assert lines[-1] == ("  pair 0 (seed 7): attempted/failed (64, 0) at "
                         "base, (64, 1) at change")


def test_a_claim_needs_nine_wins_in_ten_and_a_median_beyond_the_iqr():
    base = [(1.0 + 0.01 * i, 100.0) for i in range(10)]  # IQR 0.045
    summary = _load().summary
    # ten wins, medians 0.1 apart
    lines = summary(_pairs(base, [(b - 0.1, r) for b, r in base]), METRICS)
    assert "wins 10/10" in lines[1] and lines[1].endswith("claim met")
    # nine wins still claim; eight do not
    for losses, verdict in ((1, "claim met"), (2, "claim not met")):
        change = [(b - 0.1, r) for b, r in base]
        for i in range(losses):
            change[i] = (base[i][0] + 0.01, 100.0)
        line = summary(_pairs(base, change), METRICS)[1]
        assert f"wins {10 - losses}/10" in line and line.endswith(verdict)
    # ten wins, but medians 0.02 apart, inside the base's IQR
    line = summary(_pairs(base, [(b - 0.02, r) for b, r in base]),
                   METRICS)[1]
    assert "wins 10/10" in line and "within base IQR" in line
    assert line.endswith("claim not met")
    # a median beyond the IQR the wrong way is no claim either
    line = summary(_pairs(base, [(b + 0.1, r) for b, r in base]),
                   METRICS)[1]
    assert "beyond base IQR" in line and line.endswith("claim not met")


def test_a_median_worse_than_the_bound_is_flagged_in_either_direction():
    base = [(1.0, 100.0)] * 4
    summary = _load().summary
    # 26% slower and 26% fewer ops: both beyond the 25% bound
    p50, rps = summary(_pairs(base, [(1.26, 74.0)] * 4), METRICS)[1:]
    assert p50.endswith("WORSE beyond the 25% bound")
    assert rps.endswith("WORSE beyond the 25% bound")
    # 24% worse each way stays inside it
    p50, rps = summary(_pairs(base, [(1.24, 76.0)] * 4), METRICS)[1:]
    assert "WORSE" not in p50 and "WORSE" not in rps
    # a 40% gain is never flagged
    p50, rps = summary(_pairs(base, [(0.6, 140.0)] * 4), METRICS)[1:]
    assert "WORSE" not in p50 and "WORSE" not in rps


def test_op_ab_summary_has_each_label_and_the_workload_change():
    # label a: base 1, 2, 3 ms against 1, 1, 1; label b: 4 against 6
    ops = [("a", 1.0, 1.0), ("a", 2.0, 1.0), ("a", 3.0, 1.0),
           ("b", 4.0, 6.0)]
    header, a, b, median, p80, total = _load("op_ab").summary(ops, 80)
    assert header.split() == ["label", "ops", "base", "ms", "change", "ms"]
    assert a.split() == ["a", "3", "2.0000", "1.0000", "-50.0%"]
    assert b.split() == ["b", "1", "4.0000", "6.0000", "+50.0%"]
    # medians 2.5 and 1; p80 (at 2.4 of 0..3) 3.4 and 1 + 0.4 * 5 = 3
    assert median.split() == ["median", "4", "2.5000", "1.0000", "-60.0%"]
    assert p80.split() == ["p80", "4", "3.4000", "3.0000", "-11.8%"]
    assert total.split() == ["total", "4", "10.0000", "9.0000", "-10.0%"]


def test_op_ab_strips_elapsed_s_and_writes_values_field_by_field():
    stripped = _load("op_ab").stripped
    a = '{"tasks": [{"elapsed_s": 0.1, "value": 1.0}], "schema": 1}'
    b = '{"schema": 1, "tasks": [{"value": 1.0, "elapsed_s": 0.2}]}'
    assert stripped(a, "") == stripped(b, "")
    assert stripped(a, "exit 2: bad") == '{"error": "exit 2: bad"}'

    @dataclasses.dataclass
    class Rep:
        value: float
        point: np.ndarray

    assert stripped(Rep(np.float64(0.5), np.array([1.0, -0.0])), "") == (
        '{"point": [1.0, -0.0], "value": 0.5}')
