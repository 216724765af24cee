"""Tests of the benchmark itself: deterministic generation, checks that
catch wrong or non-strict reports, and tracing that leaves no wrapper
behind. Run with ``python3 -m pytest perfbench -q`` from the repo root."""

import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

lab = run.import_lab()


def fingerprint(rounds):
    return json.dumps([[(op.label, op.argv, op.scenario, op.zero_gap)
                        for op in ops] for ops in rounds], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    a = workloads.make_rounds(workload, 7, 3)
    b = workloads.make_rounds(workload, 7, 3)
    c = workloads.make_rounds(workload, 8, 3)
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint(c)
    # rounds repeat the same mix (on- and off-graph probes alternate)
    assert [op.label for op in a[0]] == [op.label for op in a[2]]


def first_op(workload, label_prefix, tmp_path):
    ops = workloads.make_rounds(workload, 3, 1)[0]
    op = next(op for op in ops if op.label.startswith(label_prefix))
    if op.scenario is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(op.scenario), encoding="utf-8")
        op.argv = [str(path) if a == "{scenario}" else a for a in op.argv]
    return op


def test_checker_flags_a_wrong_verdict(tmp_path):
    op = first_op("classify-windows", "fpv.abs", tmp_path)
    _, text, error = run.execute(op, lab)
    assert error == ""
    report = workloads.parse_report(text)
    op.check(report)  # the program's own verdict passes
    rec = report["tasks"][0]["records"][0]
    rec["conclusion"] = {"in": "out", "out": "in"}[rec["conclusion"]]
    with pytest.raises(workloads.CheckFailed):
        op.check(report)


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """Inline CLI calls leave a temp file each; keep them in tmp_path."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return tmp_path


def test_checker_rejects_an_infinity_report(private_tmpdir):
    tmp_path = private_tmpdir
    with pytest.raises(ValueError):
        workloads.parse_report('{"phi": Infinity}')
    with pytest.raises(ValueError):
        workloads.parse_report('{"phi": NaN}')
    tally = run.Tally()
    tally.run(first_op("cli-mix", "fitz.skew", tmp_path), lab, workloads)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)
    assert "strict JSON" in tally.failures["fitz.skew"]


def snapshot():
    names = {}
    for modname, mod in sys.modules.items():
        if modname == "monotone_lab" or modname.startswith("monotone_lab."):
            for attr, value in vars(mod).items():
                names[(modname, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        names[(modname, attr, k)] = v
    return names


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install(lab)
    during = snapshot()
    assert len(tracer.patched) > 40
    for key in (("monotone_lab.sets", "nearest_hull_point"),
                ("monotone_lab.harness", "subgradient_descent"),
                ("monotone_lab.fitzpatrick", "linprog"),
                ("monotone_lab.sets", "Polytope", "project")):
        assert during[key] is not before[key], key
    tally = run.Tally()
    try:
        tally.run(first_op("classify-windows", "fpv.cone", tmp_path), lab,
                  workloads)
    finally:
        tracer.restore()
    assert tally.failed == 0
    assert tracer.counts["solvers.hull.calls"] > 0
    assert tracer.counts["classifiers.window.calls"] == 1
    after = snapshot()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.patched == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_is_a_fixed_number_of_whole_pairs(workload):
    # fixed for the arguments, so a seed's failures repeat on every host
    assert run.timed_rounds(workload, 1) == 2
    n = run.timed_rounds(workload, 25)
    assert n % 2 == 0 and n >= 4
    assert n == run.timed_rounds(workload, 25)
