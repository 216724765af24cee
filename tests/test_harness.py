"""Scenario parsing, task execution, report formats, CLI exit codes."""

import contextlib
import io
import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monotone_lab import (
    DualPair,
    FiniteGraph,
    GapReport,
    IndicatorFn,
    Linear,
    MonotoneOperator,
    NormFn,
    NormTag,
    NormalCone,
    PairedPoint,
    ScenarioError,
    Subdifferential,
    SumOp,
    box,
    fuzzy_gap_dual,
    fuzzy_gap_primal,
    gap,
    interval,
    normal_cone,
    parse_fn,
    parse_operator,
    parse_scenario,
    parse_set,
    parse_space,
    r_objective,
    report_csv,
    report_json,
    run_scenario,
    strip_timings,
    sum_test,
    support_subdiff,
    tail_experiment,
    tail_operator,
)
from monotone_lab import harness as harness_mod
from monotone_lab import quasidensity
from monotone_lab.cli import main

PAIR1 = DualPair(1, NormTag.L2)


def write_scenario(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def base_scenario(tasks, operators=None, space=None):
    return {
        "schema": 1,
        "space": space or {"dim": 1, "norm": "l2"},
        "operators": operators or {"abs": {"subdiff": {"norm": {"dim": 1}}}},
        "tasks": tasks,
    }


class TestDescriptorParsing:
    def test_space(self):
        pair = parse_space({"dim": 3, "norm": "l1"})
        assert pair.dim == 3
        assert pair.primal_norm is NormTag.L1
        assert pair.dual_norm is NormTag.LINF

    def test_space_needs_dim(self):
        with pytest.raises(ScenarioError, match="dim"):
            parse_space({"norm": "l2"})

    def test_set_variants(self):
        s = parse_set({"polytope": [[0.0], [1.0]]})
        assert s.support(np.array([1.0])) == 1.0
        b = parse_set({"ball": {"center": [0.0, 0.0], "radius": 2.0}})
        assert b.dim == 2
        c = parse_set({"capsule": {"a": [0.0], "b": [1.0], "radius": 0.5}})
        assert c.contains(np.array([1.4]))

    def test_unknown_set_key_is_named(self):
        with pytest.raises(ScenarioError, match="blob"):
            parse_set({"blob": []})

    def test_fn_variants(self):
        f = parse_fn({"norm": {"dim": 2, "kind": "l1"}})
        assert f.eval(np.array([1.0, -2.0])) == 3.0
        g = parse_fn({"sum": [{"half_sq": {"dim": 1}},
                              {"norm": {"dim": 1}}]})
        assert g.eval(np.array([2.0])) == 4.0
        h = parse_fn({"translate": {"inner": {"norm": {"dim": 1}},
                                    "shift": [-2.0], "tilt": [0.0]}})
        assert h.eval(np.array([2.0])) == 0.0

    def test_translate_reads_a_missing_shift_or_tilt_as_zeros(self):
        # |x| - x at x = 2 is 0; an empty shift read -2
        f = parse_fn({"translate": {"inner": {"norm": {"dim": 1}},
                                    "tilt": [1.0]}})
        assert f.eval(np.array([2.0])) == 0.0
        g = parse_fn({"translate": {"inner": {"norm": {"dim": 2}},
                                    "shift": [3.0, 4.0]}})
        assert np.array_equal(g.tilt, np.zeros(2))
        assert g.eval(np.zeros(2)) == 5.0

    def test_translate_of_the_wrong_size_is_a_scenario_error(self):
        with pytest.raises(ScenarioError,
                           match=r"tilt has shape \(3,\), expected \(2,\)"):
            parse_fn({"translate": {"inner": {"norm": {"dim": 2}},
                                    "tilt": [1.0, 0.5, 0.0]}})

    def test_unknown_fn_key_is_named(self):
        with pytest.raises(ScenarioError, match="mystery"):
            parse_fn({"mystery": {}})

    def test_operator_variants(self):
        # the tail map lives on the l1 pair of its own size
        T = parse_operator({"tail": 2}, DualPair(2, NormTag.L1))
        assert T.M.shape == (2, 2)
        G = parse_operator({"graph": [[[0.0], [0.0]], [[1.0], [1.0]]]}, PAIR1)
        assert isinstance(G, FiniteGraph)
        A = parse_operator({"sum": [{"subdiff": {"norm": {"dim": 1}}},
                                    {"linear": [[1.0]]}]}, PAIR1)
        pt = A.resolvent(np.array([3.0]))
        assert pt.x[0] == pytest.approx(1.0, abs=1e-7)

    def test_inverse_of_graph_is_exact_on_l1(self, tmp_path):
        # the inner graph is read on the swapped (linf/l1) pair, and its
        # inverse on the scenario's l1 pair is a finite graph again
        pts = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, -0.5], [0.5, 0.25]],
               [[0.2, 0.6], [-0.4, 1.1]]]
        probe = [[0.2, 0.9], [0.5, -0.3]]
        data = base_scenario(
            [{"kind": "gap", "operator": "inv", "seed": 0,
              "probes": [probe]}],
            operators={"inv": {"inverse": {"graph": pts}}},
            space={"dim": 2, "norm": "l1"})
        rec = run_scenario(write_scenario(tmp_path, data))["tasks"][0][
            "records"][0]
        assert (rec["status"], rec["method"]) == ("exact", "enumeration")
        swapped = FiniteGraph(pair=DualPair(2, NormTag.L1), points=tuple(
            PairedPoint(b, a) for a, b in pts))
        t = PairedPoint(*probe)
        best = min(r_objective(swapped, t, p.x, p.xstar)
                   for p in swapped.points)
        assert rec["value"] == pytest.approx(best, abs=1e-15)
        assert [rec["witness"]["xstar"], rec["witness"]["x"]] in pts

    def test_unknown_operator_key_is_named(self):
        with pytest.raises(ScenarioError, match="gizmo"):
            parse_operator({"gizmo": 1}, PAIR1)


class TestTailDescriptor:
    """{"tail": n} is the tail map on the l1 pair of dimension n."""

    def _run(self, tmp_path, space, desc, probe):
        data = base_scenario(
            [{"kind": "gap", "operator": "T", "seed": 0,
              "probes": [probe]}],
            operators={"T": desc}, space=space)
        return main(["run", write_scenario(tmp_path, data)])

    def test_wrong_norm_exits_2(self, capsys, tmp_path):
        code = self._run(tmp_path, {"dim": 2, "norm": "l2"}, {"tail": 2},
                         [[0.0, 0.0], [1.0, 1.0]])
        assert code == 2
        assert "l1 pair of dimension 2" in capsys.readouterr().err

    def test_wrong_dim_exits_2(self, capsys, tmp_path):
        code = self._run(tmp_path, {"dim": 2, "norm": "l1"}, {"tail": 3},
                         [[0.0, 0.0], [1.0, 1.0]])
        assert code == 2
        assert "tail operator of size 3" in capsys.readouterr().err

    def test_valid_tail_and_its_inverse_run(self, capsys, tmp_path):
        assert self._run(tmp_path, {"dim": 3, "norm": "l1"}, {"tail": 3},
                         [[0.0] * 3, [1.0] * 3]) == 0
        rec = json.loads(capsys.readouterr().out)["tasks"][0]["records"][0]
        assert rec["method"] == "qp"
        # the inverse lives on the swapped (linf) pair
        assert self._run(tmp_path, {"dim": 3, "norm": "linf"},
                         {"inverse": {"tail": 3}},
                         [[1.0] * 3, [0.0] * 3]) == 0
        inv = json.loads(capsys.readouterr().out)["tasks"][0]["records"][0]
        assert (inv["method"], inv["value"]) == ("qp", rec["value"])
        assert self._run(tmp_path, {"dim": 3, "norm": "l1"},
                         {"inverse": {"tail": 3}},
                         [[1.0] * 3, [0.0] * 3]) == 2


class TestScenarioValidation:
    def test_schema_rejected(self):
        with pytest.raises(ScenarioError, match="schema"):
            parse_scenario({"schema": 2, "space": {"dim": 1}, "tasks": []})

    def test_unknown_operator_reference(self):
        data = base_scenario([{"kind": "gap", "operator": "nope",
                               "seed": 0}])
        with pytest.raises(ScenarioError, match="nope"):
            parse_scenario(data)

    def test_task_needs_seed(self):
        data = base_scenario([{"kind": "gap", "operator": "abs"}])
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(data)

    def test_unknown_task_kind_is_config_error(self, capsys, tmp_path):
        data = base_scenario([{"kind": "gizmo", "seed": 0}])
        with pytest.raises(ScenarioError, match="unknown kind 'gizmo'"):
            parse_scenario(data)
        assert main(["run", write_scenario(tmp_path, data)]) == 2

    def test_tail_task_needs_no_seed(self):
        data = base_scenario([{"kind": "tail_experiment", "n_list": [1]}])
        parse_scenario(data)  # should not raise

    @pytest.mark.parametrize("task,required", [
        ({"kind": "gap", "operator": "abs", "count": 1}, ["operator"]),
        ({"kind": "fitz", "operator": "abs", "points": [[[1.0], [1.0]]]},
         ["operator"]),
        ({"kind": "classify", "operator": "abs", "class": "ni",
          "wstar": [2.0], "wstarstar": [0.0]},
         ["operator", "class", "wstar", "wstarstar"]),
        ({"kind": "classify", "operator": "abs", "class": "fpv",
          "window": {"polytope": [[-2.0], [2.0]]}, "w": [1.0],
          "wstar": [1.0]}, ["operator", "class", "window", "w", "wstar"]),
        ({"kind": "classify", "operator": "abs", "class": "fp",
          "window": {"polytope": [[-0.5], [0.5]]}, "w": [0.0],
          "wstar": [0.0]}, ["operator", "class", "window", "w", "wstar"]),
        ({"kind": "classify", "operator": "abs", "class": "strongmax",
          "fuzz": {"polytope": [[0.2], [0.4]]}, "w": [0.0]},
         ["operator", "class", "fuzz", "w"]),
        ({"kind": "classify", "operator": "abs", "class": "strongmax",
          "fuzz_side": "primal", "fuzz": {"polytope": [[-1.0], [1.0]]},
          "wstar": [0.5]}, ["operator", "class", "fuzz", "wstar"]),
        ({"kind": "br", "mode": "point", "fn": {"half_sq": {"dim": 1}},
          "u": [0.1], "alpha": 0.1, "beta": 0.1},
         ["mode", "fn", "u", "alpha", "beta"]),
        ({"kind": "br", "mode": "corollary", "fn": {"half_sq": {"dim": 1}},
          "beta": 0.1}, ["mode", "fn", "beta"]),
        ({"kind": "br", "mode": "van", "fn": {"half_sq": {"dim": 1}},
          "eps": 0.1}, ["mode", "fn", "eps"]),
        ({"kind": "br", "mode": "witness", "fn": {"half_sq": {"dim": 1}},
          "x": [0.0], "xstar": [1.0], "eps": 0.1},
         ["mode", "fn", "x", "xstar", "eps"]),
        ({"kind": "sum_test", "S": "abs", "T": "abs", "probes": 2},
         ["S", "T"]),
        ({"kind": "tail_experiment", "n_list": [1]}, []),
    ])
    def test_missing_task_field_is_named(self, task, required):
        task = dict(task, seed=0)
        report = run_scenario(base_scenario([task]))
        assert report["tasks"][0]["status"] == "ok"
        for key in sorted(task):
            if key in ("kind", "seed", "fuzz_side"):
                continue  # checked elsewhere, or a change of mode
            data = base_scenario([{k: v for k, v in task.items()
                                   if k != key}])
            if key not in required:
                parse_scenario(data)  # optional or has a default
                continue
            with pytest.raises(ScenarioError) as exc:
                parse_scenario(data)
            assert str(exc.value) == (f"task 0 ({task['kind']}) needs a "
                                      f"{key!r} field")

    def test_missing_window_exits_2(self, capsys, tmp_path):
        data = base_scenario([{"kind": "classify", "operator": "abs",
                               "class": "fpv", "seed": 0, "w": [1.0],
                               "wstar": [1.0]}])
        assert main(["run", write_scenario(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "task 0 (classify) needs a 'window' field" in captured.err

    @pytest.mark.parametrize("task, field, error", [
        ({"kind": "classify", "operator": "abs", "class": "fpv",
          "window": {"ball": {"center": [0.0]}}, "w": [0.0],
          "wstar": [0.0]}, "window", "KeyError: 'radius'"),
        ({"kind": "classify", "operator": "abs", "class": "fp",
          "window": {"polytope": [[0.0], [1.0, 2.0]]}, "w": [0.0],
          "wstar": [0.0]}, "window", "ValueError"),
        ({"kind": "classify", "operator": "abs", "class": "strongmax",
          "fuzz": {"capsule": {"a": [0.0]}}, "w": [0.0]}, "fuzz",
         "KeyError: 'b'"),
        ({"kind": "gap", "operator": "abs", "count": 1,
          "dual_fuzz": {"ball": {"radius": 1.0}}}, "dual_fuzz",
         "KeyError: 'center'"),
        ({"kind": "gap", "operator": "abs", "count": 1,
          "primal_fuzz": {"sphere": {}}}, "primal_fuzz",
         "ScenarioError: unknown set descriptor key: 'sphere'"),
        ({"kind": "br", "mode": "corollary", "fn": {"norm": {}},
          "beta": 0.1}, "fn", "KeyError: 'dim'"),
    ])
    def test_malformed_task_descriptor_exits_2(self, capsys, tmp_path,
                                               task, field, error):
        # refused before task 0, which is well formed, runs
        data = base_scenario([{"kind": "gap", "operator": "abs", "seed": 0,
                               "count": 1}, dict(task, seed=0)])
        assert main(["run", write_scenario(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"task 1 ({task['kind']}) has a malformed {field!r}: "
                f"{error}") in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--operator", '{"subdiff": {"norm": {"dim": 1}}}',
          "--class", "fpv", "--task", '{"window": {"ball": {"center": '
          '[0.0]}}, "w": [0.0], "wstar": [0.0]}'],
         "task 0 (classify) has a malformed 'window': KeyError: 'radius'"),
        (["br", "--mode", "point", "--fn", '{"norm": {}}', "--task",
          '{"u": [0.1], "alpha": 0.1, "beta": 0.1}'],
         "task 0 (br) has a malformed 'fn': KeyError: 'dim'"),
    ])
    def test_malformed_inline_descriptor_exits_2(self, capsys, argv,
                                                 message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("task, message", [
        ({"kind": "classify", "operator": "abs", "class": "strongmax",
          "fuzz_side": "dusl", "fuzz": {"polytope": [[0.2], [0.4]]},
          "w": [0.0], "wstar": [0.0]},
         "task 1 (classify) has unknown fuzz_side 'dusl'"),
        ({"kind": "classify", "operator": "abs", "class": "fpvv",
          "w": [0.0], "wstar": [0.0]},
         "task 1 (classify) has unknown class 'fpvv'"),
        ({"kind": "br", "mode": "zz", "fn": {"half_sq": {"dim": 1}}},
         "task 1 (br) has unknown mode 'zz'"),
        ({"kind": "sum_test", "S": "abs", "T": "abs", "mode": "sideways"},
         "task 1 (sum_test) has unknown mode 'sideways'"),
    ])
    def test_unknown_choice_exits_2_before_any_task(self, capsys, tmp_path,
                                                     task, message):
        data = base_scenario([{"kind": "gap", "operator": "abs", "seed": 0,
                               "count": 1}, dict(task, seed=0)])
        assert main(["run", write_scenario(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("cls, window, w, wstar", [
        ("fpv", {"polytope": [[-1.0], [1.0]]}, [0.5], [1.0]),
        ("fpv", {"ball": {"center": [0.0], "radius": 1.0}}, [0.0], [0.0]),
        ("fp", {"polytope": [[-0.5], [0.5]]}, [0.0], [0.0]),
    ])
    def test_a_window_side_key_is_ignored(self, cls, window, w, wstar):
        """A window descriptor may carry a "side" key, as the benchmark's
        do; it reads as the same set."""
        task = {"kind": "classify", "operator": "abs", "class": cls,
                "seed": 2, "w": w, "wstar": wstar}
        reports = [strip_timings(run_scenario(base_scenario(
            [dict(task, window=dict(window, **side))])))
            for side in ({}, {"side": "primal"}, {"side": "dual"})]
        plain, *tagged = [r["tasks"][0] for r in reports]
        assert plain["status"] == "ok"
        for t in tagged:
            assert t["records"] == plain["records"]

    def test_unknown_sum_operand(self):
        data = base_scenario([{"kind": "sum_test", "S": "abs", "T": "nope",
                               "seed": 0}])
        with pytest.raises(ScenarioError, match="nope"):
            parse_scenario(data)

    def test_malformed_json_reports_location(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema": 1,\n  "space": }', encoding="utf-8")
        with pytest.raises(ScenarioError, match="line 2"):
            run_scenario(str(p))


ABS = {"subdiff": {"norm": {"dim": 1}}}
HALF_SQ = {"half_sq": {"dim": 1}}


def inline_argv(task):
    """The inline CLI call that builds ``task`` as its one task, with
    ``ABS`` for its operator."""
    rest = {k: v for k, v in task.items()
            if k not in ("kind", "operator", "class", "mode", "fn",
                         "points")}
    if task["kind"] == "tail_experiment":
        return ["tail", "--task", json.dumps(rest)]
    if task["kind"] == "br":
        argv = ["br", "--mode", task["mode"], "--fn", json.dumps(task["fn"])]
        if "operator" in task:
            rest["operator"] = task["operator"]
    else:
        argv = [task["kind"], "--operator", json.dumps(ABS)]
    if task["kind"] == "fitz":
        argv += ["--points", json.dumps(task["points"])]
    if task["kind"] == "classify":
        argv += ["--class", task["class"]]
    return argv + ["--task", json.dumps(rest)]


class TestRefusedAtParse:
    """A malformed number or point, a negative seed or budget, a
    non-positive tolerance, a wrongly sized br vector or set, two fuzz
    sets, an operator descriptor whose parts disagree in size and a
    dimension or size that is no integer of at least 1 are refused when
    the scenario is parsed, through ``run`` and the inline calls alike,
    before any task solves."""

    GAP = {"kind": "gap", "operator": "abs", "seed": 0, "count": 1}
    FITZ = {"kind": "fitz", "operator": "abs", "seed": 0,
            "points": [[[1.0], [1.0]]]}
    NI = {"kind": "classify", "operator": "abs", "class": "ni", "seed": 0,
          "wstar": [2.0], "wstarstar": [0.0]}
    CASES = [
        (dict(GAP, seed="abc"), "has a malformed 'seed'"),
        (dict(GAP, budget="x"), "has a malformed 'budget'"),
        (dict(GAP, count="x"), "has a malformed 'count'"),
        (dict(GAP, count=-2), "has a malformed 'count'"),
        (dict(GAP, eta=0.0), "has a malformed 'eta'"),
        (dict(GAP, eta=-1), "has a malformed 'eta'"),
        (dict(GAP, probes=[[[0.1, 0.2], [0.0]]]),
         "has a malformed 'probes': ValueError: probe has shape (2,)"),
        (dict(GAP, dual_fuzz={"polytope": [[0.0], [1.0]]},
              primal_fuzz={"polytope": [[0.0], [1.0]]}),
         "has both a 'dual_fuzz' and a 'primal_fuzz'"),
        (dict(FITZ, tol=0.0), "has a malformed 'tol'"),
        (dict(FITZ, points=[[[1.0], [1.0, 2.0]]]),
         "has a malformed 'points': ValueError: point has shape (2,)"),
        (dict(NI, wstarstar="x"), "has a malformed 'wstarstar'"),
        (dict(NI, budget=[1]), "has a malformed 'budget'"),
        ({"kind": "br", "mode": "point", "seed": 0, "fn": HALF_SQ,
          "u": [0.01, 0.02], "alpha": 1.0, "beta": 1.0},
         "has a malformed 'u': ValueError: u has shape (2,), expected (1,)"),
        ({"kind": "br", "mode": "point", "seed": 0, "fn": HALF_SQ,
          "u": [0.01], "alpha": "a", "beta": 1.0},
         "has a malformed 'alpha'"),
        ({"kind": "br", "mode": "point", "seed": 0, "fn": HALF_SQ,
          "u": [0.01], "alpha": 1.0, "beta": -1.0},
         "has a malformed 'beta'"),
        ({"kind": "br", "mode": "corollary", "seed": 0, "fn": HALF_SQ,
          "beta": 0}, "has a malformed 'beta'"),
        ({"kind": "br", "mode": "van", "seed": 0, "fn": HALF_SQ,
          "eps": 0.0}, "has a malformed 'eps'"),
        ({"kind": "br", "mode": "witness", "seed": 0, "fn": HALF_SQ,
          "x": [0.0], "xstar": [1.0, 1.0], "eps": 0.1},
         "has a malformed 'xstar': ValueError: xstar has shape (2,)"),
        ({"kind": "tail_experiment", "n_list": [0]},
         "has a malformed 'n_list'"),
        ({"kind": "tail_experiment", "n_list": ["a"]},
         "has a malformed 'n_list'"),
        ({"kind": "tail_experiment", "n_list": [1], "step_cap": "x"},
         "has a malformed 'step_cap'"),
        # a bool, a string or a fraction where an integer belongs
        (dict(GAP, count=2.9), "has a malformed 'count': TypeError: "
         "'float' object cannot be interpreted as an integer"),
        (dict(GAP, count=True),
         "has a malformed 'count': TypeError: True is not an integer"),
        (dict(GAP, seed="3"), "has a malformed 'seed'"),
        (dict(GAP, budget=False), "has a malformed 'budget'"),
        ({"kind": "tail_experiment", "n_list": [2.5]},
         "has a malformed 'n_list'"),
        ({"kind": "tail_experiment", "n_list": [1], "step_cap": True},
         "has a malformed 'step_cap'"),
        ({"kind": "tail_experiment", "n_list": [1], "step_cap": 2.5},
         "has a malformed 'step_cap'"),
        ({"kind": "tail_experiment", "n_list": [1], "step_cap": -1},
         "has a malformed 'step_cap': ValueError: -1 is below 0"),
        ({"kind": "sum_test", "S": "abs", "T": "abs", "seed": 0,
          "probes": 1.5}, "has a malformed 'probes'"),
        ({"kind": "sum_test", "S": "abs", "T": "abs", "seed": 0,
          "probes": -1}, "has a malformed 'probes'"),
        ({"kind": "sum_test", "S": "abs", "T": "abs", "seed": 0,
          "eta": 0.0}, "has a malformed 'eta'"),
        # refused at the parent too, for a field the kind never reads
        ({"kind": "br", "mode": "corollary", "seed": 0, "fn": HALF_SQ,
          "beta": 0.1, "operator": "nope"},
         "references unknown operator 'nope'"),
        (dict(NI, fuzz_side="x"), "has unknown fuzz_side 'x'"),
        # a set descriptor of the wrong dimension
        (dict(GAP, dual_fuzz={"polytope": [[-1.0, 0.0], [1.0, 0.0]]}),
         "has a malformed 'dual_fuzz': ValueError: set has dimension 2, "
         "expected 1"),
        (dict(GAP, primal_fuzz={"ball": {"center": [0.0, 0.0],
                                         "radius": 1.0}}),
         "has a malformed 'primal_fuzz': ValueError: set has dimension 2"),
        ({"kind": "classify", "operator": "abs", "class": "fpv", "seed": 0,
          "window": {"polytope": [[-1.0, 0.0], [1.0, 0.0]]}, "w": [0.0],
          "wstar": [0.0]},
         "has a malformed 'window': ValueError: set has dimension 2"),
        ({"kind": "classify", "operator": "abs", "class": "strongmax",
          "seed": 0, "fuzz": {"capsule": {"a": [0.0, 0.0], "b": [1.0, 0.0]}},
          "w": [0.0]},
         "has a malformed 'fuzz': ValueError: set has dimension 2"),
        # a negative seed or budget
        (dict(GAP, budget=-5),
         "has a malformed 'budget': ValueError: -5 is below 0"),
        (dict(GAP, seed=-1), "has a malformed 'seed'"),
        (dict(FITZ, budget=-1), "has a malformed 'budget'"),
        ({"kind": "classify", "operator": "abs", "class": "fpv", "seed": -20,
          "window": {"polytope": [[-1.0], [1.0]]}, "w": [0.0],
          "wstar": [0.0]},
         "has a malformed 'seed': ValueError: -20 is below 0"),
        ({"kind": "br", "mode": "corollary", "seed": -1, "fn": HALF_SQ,
          "beta": 0.1}, "has a malformed 'seed'"),
        ({"kind": "sum_test", "S": "abs", "T": "abs", "seed": -1},
         "has a malformed 'seed'"),
        # a function's dimension that is no integer of at least 1
        ({"kind": "br", "mode": "corollary", "seed": 0,
          "fn": {"half_sq": {"dim": True}}, "beta": 0.1},
         "has a malformed 'fn': ScenarioError: half_sq function has a "
         "malformed 'dim': TypeError: True is not an integer"),
        ({"kind": "br", "mode": "corollary", "seed": 0,
          "fn": {"norm": {"dim": "1"}}, "beta": 0.1},
         "has a malformed 'fn': ScenarioError: norm function has a "
         "malformed 'dim': TypeError"),
        ({"kind": "br", "mode": "corollary", "seed": 0,
          "fn": {"half_sq": {"dim": 0}}, "beta": 0.1},
         "has a malformed 'fn': ScenarioError: half_sq function has a "
         "malformed 'dim': ValueError: 0 is below 1"),
    ]
    # (dimension, operator descriptor, message)
    BAD_OPERATORS = [
        (2, {"graph": [[[1], [2]]]},
         "graph point has shape (1,), expected (2,)"),
        (2, {"subdiff": {"quadratic": {"Q": [[1]], "b": [0, 1]}}},
         "Q has shape (1, 1), expected (2, 2)"),
        (2, {"normal_cone": {"capsule": {"a": [0, 0], "b": [1]}}},
         "capsule ends have shapes (2,) and (1,)"),
        (2, {"shift": {"inner": {"linear": [[1, 0], [0, 1]]}, "dx": [1]}},
         "dx has shape (1,), expected (2,)"),
        (1, {"graph": [[[1, 2], [3, 4]]]},
         "graph point has shape (2,), expected (1,)"),
        (1, {"subdiff": {"quadratic": {"Q": [[1, 0], [0, 1]], "b": [0]}}},
         "Q has shape (2, 2), expected (1, 1)"),
        (1, {"normal_cone": {"capsule": {"a": [0], "b": [1, 0]}}},
         "capsule ends have shapes (1,) and (2,)"),
        (1, {"shift": {"inner": {"linear": [[1]]}, "dxstar": [1, 2]}},
         "dxstar has shape (2,), expected (1,)"),
    ]
    # (space, operator descriptor, message): a size that is no integer
    # of at least 1, which int() read as 1, 1, 2 and 1 or refused with a
    # TypeError
    BAD_SIZES = [
        ({"dim": [1], "norm": "l2"}, ABS,
         "space descriptor has a malformed 'dim': TypeError: 'list' object "
         "cannot be interpreted as an integer"),
        ({"dim": True, "norm": "l2"}, ABS,
         "space descriptor has a malformed 'dim': TypeError: True is not "
         "an integer"),
        ({"dim": "1", "norm": "l2"}, ABS,
         "space descriptor has a malformed 'dim': TypeError"),
        ({"dim": 2.9, "norm": "l2"}, {"subdiff": {"norm": {"dim": 2}}},
         "space descriptor has a malformed 'dim': TypeError: 'float' "
         "object cannot be interpreted as an integer"),
        ({"dim": 1, "norm": "l1"}, {"tail": True},
         "operator descriptor has a malformed 'tail': TypeError: True is "
         "not an integer"),
        ({"dim": 2, "norm": "l1"}, {"tail": 2.5},
         "operator descriptor has a malformed 'tail': TypeError"),
        ({"dim": 1, "norm": "l2"}, {"subdiff": {"norm": {"dim": True}}},
         "norm function has a malformed 'dim': TypeError: True is not an "
         "integer"),
        ({"dim": 1, "norm": "l2"}, {"subdiff": {"half_sq": {"dim": [1]}}},
         "half_sq function has a malformed 'dim': TypeError"),
    ]

    @pytest.fixture
    def gap_calls(self, monkeypatch):
        calls = []
        real = harness_mod.qd_mod.gaps

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness_mod.qd_mod, "gaps", spy)
        return calls

    @pytest.mark.parametrize("task, message", CASES)
    def test_run_exits_2_before_any_solve(self, capsys, tmp_path, gap_calls,
                                          task, message):
        data = base_scenario([self.GAP, task])
        assert main(["run", write_scenario(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"task 1 ({task['kind']}) {message}" in captured.err
        assert gap_calls == []

    # sum_test has no inline subcommand
    @pytest.mark.parametrize("task, message", [
        c for c in CASES if c[0]["kind"] != "sum_test"])
    def test_inline_exits_2_before_any_solve(self, capsys, gap_calls, task,
                                             message):
        assert main(inline_argv(task)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"task 0 ({task['kind']}) {message}" in captured.err
        assert gap_calls == []

    @pytest.mark.parametrize("space, op, message", [
        ({"dim": dim, "norm": "l2"}, op, message)
        for dim, op, message in BAD_OPERATORS] + BAD_SIZES)
    def test_a_malformed_space_or_operator_exits_2(self, capsys, tmp_path,
                                                   gap_calls, space, op,
                                                   message):
        data = base_scenario([{"kind": "gap", "operator": "bad", "seed": 0,
                               "count": 1}], {"bad": op}, space)
        assert main(["run", write_scenario(tmp_path, data)]) == 2
        assert main(["gap", "--space", json.dumps(space), "--operator",
                     json.dumps(op), "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(message) == 2
        assert gap_calls == []

    def test_a_zero_budget_is_allowed(self):
        for task in (self.GAP, self.FITZ, self.NI):
            parse_scenario(base_scenario([dict(task, budget=0)]))

    @pytest.mark.parametrize("key", ["w", "wstar"])
    def test_a_non_finite_point_is_refused(self, key):
        task = {"kind": "classify", "operator": "abs", "class": "fpv",
                "seed": 0, "window": {"polytope": [[-1.0], [1.0]]},
                "w": [0.0], "wstar": [0.0]}
        with pytest.raises(ScenarioError,
                           match=f"task 0 \\(classify\\) has a malformed "
                                 f"'{key}': ValueError: non-finite"):
            parse_scenario(base_scenario([dict(task, **{key: [np.inf]})]))


class TestRunScenario:
    def test_gap_sweep_passes_on_maximal_subdifferential(self, tmp_path):
        data = base_scenario([{"kind": "gap", "operator": "abs",
                               "seed": 3, "count": 25}])
        rep = run_scenario(write_scenario(tmp_path, data))
        task = rep["tasks"][0]
        assert task["status"] == "ok"
        assert len(task["records"]) == 25
        assert all(r["pass"] for r in task["records"])
        assert all(r["value"] <= 1e-6 for r in task["records"])

    def test_task_error_is_recorded_not_raised(self, tmp_path):
        data = base_scenario([
            {"kind": "br", "mode": "point", "seed": 0,
             "fn": {"half_sq": {"dim": 1}},
             "u": [5.0], "alpha": 0.1, "beta": 0.1},
            {"kind": "gap", "operator": "abs", "seed": 0, "count": 3},
        ])
        rep = run_scenario(write_scenario(tmp_path, data))
        assert rep["tasks"][0]["status"] == "error"
        assert "premise" in rep["tasks"][0]["error"]
        assert rep["tasks"][1]["status"] == "ok"

    def test_reproducible_reports(self, tmp_path):
        data = base_scenario([
            {"kind": "gap", "operator": "abs", "seed": 11, "count": 10},
            {"kind": "fitz", "operator": "abs", "seed": 11,
             "points": [[[0.5], [0.0]], [[2.0], [1.0]]]},
        ])
        path = write_scenario(tmp_path, data)
        a = strip_timings(run_scenario(path))
        b = strip_timings(run_scenario(path))
        assert report_json(a) == report_json(b)

    def test_different_seed_changes_probes(self, tmp_path):
        d1 = base_scenario([{"kind": "gap", "operator": "abs", "seed": 1,
                             "count": 5}])
        d2 = base_scenario([{"kind": "gap", "operator": "abs", "seed": 2,
                             "count": 5}])
        r1 = run_scenario(write_scenario(tmp_path, d1, "a.json"))
        r2 = run_scenario(write_scenario(tmp_path, d2, "b.json"))
        p1 = [r["probe"] for r in r1["tasks"][0]["records"]]
        p2 = [r["probe"] for r in r2["tasks"][0]["records"]]
        assert p1 != p2

    def test_classify_and_br_records(self, tmp_path):
        data = base_scenario([
            {"kind": "classify", "operator": "abs", "class": "ni",
             "seed": 0, "wstar": [2.0], "wstarstar": [0.0]},
            {"kind": "br", "mode": "corollary", "seed": 0,
             "fn": {"half_sq": {"dim": 1}}, "beta": 0.1},
        ])
        rep = run_scenario(write_scenario(tmp_path, data))
        ni = rep["tasks"][0]["records"][0]
        # the true infimum is -inf (s -> +inf with s* = 1); the sampled
        # bound must at least land strictly negative
        assert ni["infimum"] < -1.0
        assert ni["nonpositive"]
        br = rep["tasks"][1]["records"][0]
        assert br["ok"]


SKEWED = [[1.0, 1.0], [-1.0, 1.0]]
SQUARE_CORNERS = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
# the operator and window kinds of the classify-windows benchmark
CLASSIFY_KINDS = [
    (1, {"subdiff": {"norm": {"dim": 1, "kind": "l2"}}}, "interval"),
    (1, {"subdiff": {"half_sq": {"dim": 1}}}, "interval"),
    (1, {"normal_cone": {"polytope": [[-1.0], [1.0]]}}, "interval"),
    (1, {"linear": [[2.0]]}, "interval"),
    (2, {"normal_cone": {"polytope": SQUARE_CORNERS}}, "box"),
    (2, {"linear": SKEWED}, "box"),
    (2, {"subdiff": {"half_sq": {"dim": 2}}}, "ball"),
    (2, {"subdiff": {"norm": {"dim": 2, "kind": "l1"}}}, "ball"),
    (2, {"linear": SKEWED}, "ball"),
]


class TestFlagsAtFirstRead:
    """Parsing a classify task builds no flag that its run may not read:
    a polytope's box test (once ``np.unique``) and a linear map's
    monotonicity (``np.linalg.eigvalsh``) wait for their first read."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for mod, name in ((np, "unique"), (np.linalg, "eigvalsh")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=real, **k:
                                calls.append(_n) or _f(*a, **k))
        return calls

    @pytest.mark.parametrize("cls", ["fpv", "fp"])
    @pytest.mark.parametrize("dim, op, window", CLASSIFY_KINDS)
    def test_classify_parse_runs_neither(self, monkeypatch, cls, dim, op,
                                         window):
        c = [0.1] * dim
        U = ({"ball": {"center": c, "radius": 1.0}} if window == "ball"
             else {"polytope": [[v + 0.1 for v in corner] for corner in
                                (SQUARE_CORNERS if dim == 2
                                 else [[-1.0], [1.0]])]})
        data = base_scenario(
            [{"kind": "classify", "operator": "S", "class": cls, "seed": 3,
              "budget": 20, "w": c, "wstar": c, "window": U}],
            operators={"S": op}, space={"dim": dim, "norm": "l2"})
        calls = self._spy(monkeypatch)
        scen = parse_scenario(data)
        assert calls == []
        assert scen.runs[0]()[0]["conclusion"] in ("in", "out", "unknown")

    def test_non_monotone_map_is_read_at_its_gap(self, monkeypatch):
        data = base_scenario(
            [{"kind": "gap", "operator": "S", "seed": 0, "budget": 20,
              "probes": [[[0.5], [1.0]]]}],
            operators={"S": {"linear": [[-1.0]]}})
        calls = self._spy(monkeypatch)
        scen = parse_scenario(data)
        assert calls == []
        S = parse_operator({"linear": [[-1.0]]}, DualPair(1))
        assert S.monotone is False
        assert quasidensity._path(S, PairedPoint([0.5], [1.0])) == "scan"
        rec = scen.runs[0]()[0]
        assert (rec["status"], rec["method"]) == ("upper_bound", "sampled")
        assert calls.count("eigvalsh") == 2


class TestGapTask:
    BOX = [[-0.05, -0.05], [0.04, -0.05], [-0.05, 0.06], [0.04, 0.06]]
    PROBES = [[[0.3, -0.2], [1.0, 0.5]], [[-1.0, 2.0], [0.0, 0.1]],
              [[0.0, 0.0], [0.0, 0.0]], [[2.5, 1.0], [-0.4, 0.3]],
              [[0.01, 0.02], [3.0, -3.0]], [[-0.7, -0.7], [0.2, 0.9]]]

    def _records(self, tmp_path, norm, op_desc, **fields):
        data = base_scenario(
            [{"kind": "gap", "operator": "S", "seed": 4, "budget": 30,
              "probes": self.PROBES, **fields}],
            operators={"S": op_desc}, space={"dim": 2, "norm": norm})
        S = parse_operator(op_desc, parse_space(data["space"]))
        rep = run_scenario(write_scenario(tmp_path, data))
        assert rep["tasks"][0]["status"] == "ok"
        return S, rep["tasks"][0]["records"]

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    def test_records_are_gap_bit_for_bit(self, tmp_path, norm):
        sum_desc = {"sum": [{"subdiff": {"norm": {"dim": 2,
                                                  "kind": "linf"}}},
                            {"normal_cone": {"polytope": self.BOX}}]}
        graph = {"graph": [[[0.0, 1.0], [1.0, 0.0]], [[2.0, 0.0],
                                                      [0.5, 0.5]]]}
        for desc in (sum_desc, graph):
            S, records = self._records(tmp_path, norm, desc)
            for rec, (x, xs) in zip(records, self.PROBES):
                rep = gap(S, PairedPoint(x, xs), 30, 4)
                assert (rec["value"], rec["status"], rec["method"]) == (
                    rep.value, rep.status, rep.method)
                assert rec["witness"] == {"x": list(rep.witness.x),
                                          "xstar": list(rep.witness.xstar)}

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("side", ["dual_fuzz", "primal_fuzz"])
    def test_fuzz_records_are_the_fuzzy_gap_bit_for_bit(self, tmp_path, norm,
                                                        side):
        # a fuzz set replaces the probe's x (dual) or x* (primal)
        W = parse_set({"polytope": self.BOX})
        norm_desc = {"subdiff": {"norm": {"dim": 2, "kind": "linf"}}}
        graph = {"graph": [[[0.0, 1.0], [1.0, 0.0]], [[2.0, 0.0],
                                                      [0.5, 0.5]]]}
        for desc in (norm_desc, graph):
            S, records = self._records(tmp_path, norm, desc,
                                       **{side: {"polytope": self.BOX}})
            assert len(records) == len(self.PROBES)
            for rec, (x, xs) in zip(records, self.PROBES):
                rep = (fuzzy_gap_dual(S, np.array(x), W, 30, 4)
                       if side == "dual_fuzz" else
                       fuzzy_gap_primal(S, W, np.array(xs), 30, 4))
                assert (rec["value"], rec["status"], rec["method"],
                        rec["pass"]) == (rep.value, rep.status, rep.method,
                                         rep.value <= 1e-6)
                assert rec["witness"] == (None if rep.witness is None else {
                    "x": list(rep.witness.x),
                    "xstar": list(rep.witness.xstar)})

    def test_sampled_probes_share_one_draw(self, tmp_path, monkeypatch):
        # off the Euclidean pair six sampled probe gaps scan one graph
        # draw of the sum (the probes are given, so no radius draw)
        draws = []
        rows = SumOp.graph_rows
        monkeypatch.setattr(SumOp, "graph_rows", lambda self, budget, seed:
                            draws.append(seed) or rows(self, budget, seed))
        S, records = self._records(tmp_path, "linf", {"sum": [
            {"subdiff": {"norm": {"dim": 2, "kind": "linf"}}},
            {"normal_cone": {"polytope": self.BOX}}]})
        assert isinstance(S, SumOp) and draws == [4]
        assert len(records) == 6
        assert all(r["method"] == "sampled" for r in records)


class TestTailExperiment:
    def test_n1_exact_zero(self):
        rows = tail_experiment([1])
        assert rows[0]["status"] == "exact"
        assert rows[0]["gap_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_larger_n_reports_bounds(self):
        rows = tail_experiment([2, 4], step_cap=4000)
        for row in rows:
            assert row["status"] == "upper_bound"
            assert row["gap_bound"] >= 0.0
            assert row["steps"] > 0

    def test_qp_rows_reach_zero(self):
        for row in tail_experiment([2, 16, 64]):
            assert row["status"] == "upper_bound"
            assert 0.0 <= row["gap_bound"] <= 1e-9
            assert row["steps"] >= 1 and row["restarts"] == 1

    def test_pivot_cap_leaves_the_start(self):
        # one pivot cannot end Lemke's run: the row reports r at the
        # start s = (x + x*)/2, still an upper bound on the graph
        row = tail_experiment([8], step_cap=1)[0]
        assert row["status"] == "upper_bound" and row["steps"] >= 1
        T = tail_operator(8)
        s, ss = (np.array(row["witness"][k]) for k in ("x", "xstar"))
        assert np.array_equal(T.M @ s, ss)
        probe = PairedPoint(np.zeros(8), np.ones(8))
        assert row["gap_bound"] == r_objective(T, probe, s, ss) > 0.0

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_closed_form_witness(self, n):
        # s = e_n/2 maps to the all-halves vector: r = 1/8 + 1/8 - 1/4
        T = tail_operator(n)
        s = np.zeros(n)
        s[-1] = 0.5
        probe = PairedPoint(np.zeros(n), np.ones(n))
        assert r_objective(T, probe, s, T.M @ s) == 0.0

    def test_empty_list(self):
        assert tail_experiment([]) == []

    def test_an_integral_float_reads_as_its_integer(self):
        # JSON may write 2 as 2.0; the task echoes it, the rows read 2
        report = run_scenario(base_scenario([
            {"kind": "tail_experiment", "n_list": [2.0], "step_cap": 50.0}]))
        assert report["tasks"][0]["status"] == "ok"
        assert [r["n"] for r in report["tasks"][0]["records"]] == [2]
        assert report["tasks"][0]["records"][0]["steps"] <= 50


class TestSumTest:
    def test_domain_mode_passes(self):
        S = Subdifferential(pair=PAIR1, f=NormFn(1))
        T = normal_cone(PAIR1, interval(-1.0, 1.0))
        out = sum_test(S, T, "domain", probes=10, seed=0)
        assert out["status"] == "ok"
        assert out["failed"] == 0
        assert out["worst_gap"] <= 1e-6

    def test_a_nan_probe_gap_makes_the_worst_gap_nan(self, monkeypatch):
        # probe gaps stubbed: the second probe's NaN gap fails it, and
        # the worst gap must not read as the first probe's 0.0
        monkeypatch.setattr(harness_mod, "_interior_domain_witness",
                            lambda S, T, seed: np.zeros(1))
        monkeypatch.setattr(harness_mod.qd_mod, "gaps",
                            lambda S, probes, seed: [
                                GapReport(v, None, "exact", "resolvent")
                                for v in (0.0, np.nan)])
        S = Subdifferential(pair=PAIR1, f=NormFn(1))
        out = sum_test(S, S, "domain", probes=2, seed=0)
        assert (out["passed"], out["failed"]) == (1, 1)
        assert np.isnan(out["worst_gap"])
        assert json.loads(report_json(out))["worst_gap"] == "nan"

    @pytest.mark.parametrize("norm, outcome", [
        (NormTag.L1, (0, 0, 4, "upper_bound")),
        (NormTag.L2, (4, 0, 0, "exact")),
        (NormTag.LINF, (0, 0, 4, "upper_bound"))])
    def test_sampled_gaps_above_eta_are_unproven(self, norm, outcome):
        # a parallel sum of two maximal monotone operators has gap 0
        # everywhere: exact on the Euclidean pair, and off it a sampled
        # upper bound, which cannot show a failure
        pair = DualPair(2, norm)
        S = Linear(pair=pair, M=np.array([[2.0, 1.0], [-1.0, 1.0]]))
        T = normal_cone(pair, box(np.array([-1.0, -1.0]),
                                  np.array([1.5, 1.5])))
        out = sum_test(S, T, "range", probes=4, seed=1)
        assert (out["passed"], out["failed"], out["unproven"],
                out["worst_gap_status"]) == outcome

    @pytest.mark.parametrize("eta", [0.0, -1.0])
    def test_a_non_positive_eta_is_refused_before_any_solve(self, monkeypatch,
                                                            eta):
        # disjoint domains: the witness search would find none and skip
        calls = []
        resolvent = MonotoneOperator.resolvent
        monkeypatch.setattr(MonotoneOperator, "resolvent",
                            lambda self, *args: calls.append(args)
                            or resolvent(self, *args))
        T1 = normal_cone(PAIR1, interval(0.0, 1.0))
        T2 = normal_cone(PAIR1, interval(2.0, 3.0))
        with pytest.raises(ValueError, match="eta must be positive"):
            sum_test(T1, T2, "domain", probes=5, seed=0, eta=eta)
        assert calls == []

    def test_disjoint_domains_skipped(self):
        T1 = normal_cone(PAIR1, interval(-2.0, -1.0))
        T2 = normal_cone(PAIR1, interval(1.0, 2.0))
        out = sum_test(T1, T2, "domain", probes=5, seed=0)
        assert out["status"] == "skipped"
        assert "witness" in out["reason"]

    @pytest.mark.parametrize("seed", range(4))
    def test_full_domains_find_a_witness(self, seed):
        # both domains are the plane, so every sampled point is interior
        pair = DualPair(2)
        S = Linear(pair=pair, M=np.array([[2.0, 1.0], [-1.0, 1.0]]))
        T = Subdifferential(pair=pair, f=NormFn(2, 0.5))
        out = sum_test(S, T, "domain", seed=seed)
        assert out["status"] == "ok" and out["probes"] == 50
        assert out["passed"] == 50

    def test_touching_domains_skipped(self):
        # [-1, 0] and [0, 1] meet at 0 alone, with no interior point
        T1 = normal_cone(PAIR1, interval(-1.0, 0.0))
        T2 = normal_cone(PAIR1, interval(0.0, 1.0))
        for seed in range(4):
            assert sum_test(T1, T2, "domain", probes=5,
                            seed=seed)["status"] == "skipped"

    def test_unknown_mode(self):
        S = Subdifferential(pair=PAIR1, f=NormFn(1))
        with pytest.raises(ScenarioError):
            sum_test(S, S, "sideways")

    def test_sum_of_linear_maps_is_one_linear_map(self):
        A = parse_operator({"sum": [{"linear": [[1.0, 1.0], [-1.0, 1.0]]},
                                    {"linear": [[1.0, 0.0], [0.0, 2.0]]}]},
                           DualPair(2))
        assert isinstance(A, Linear)
        assert np.array_equal(A.M, [[2.0, 1.0], [-1.0, 3.0]])

    def test_fitz_of_a_linear_sum_at_a_huge_point_is_fast(self, capsys):
        # the sum was a Douglas-Rachford resolvent, which took over 30 s
        # here; as one linear map its Fitzpatrick value is a closed form
        op = json.dumps({"sum": [{"linear": [[1.0, 1.0], [-1.0, 1.0]]},
                                 {"linear": [[1.0, 0.0], [0.0, 1.0]]}]})
        t0 = time.perf_counter()
        code = main(["fitz", "--space", '{"dim": 2, "norm": "l2"}',
                     "--operator", op,
                     "--points", "[[[1e17, 1e17], [1e17, -1e17]]]"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        rec = json.loads(capsys.readouterr().out)["tasks"][0]["records"][0]
        assert rec["phi_status"] == "exact"


class TestReportFormats:
    def test_csv_rows(self, tmp_path):
        data = base_scenario([{"kind": "gap", "operator": "abs",
                               "seed": 0, "count": 2}])
        rep = run_scenario(write_scenario(tmp_path, data))
        text = report_csv(rep)
        lines = text.strip().splitlines()
        assert lines[0] == "task_index,kind,record_index,field,value"
        assert any(",value," in line for line in lines[1:])

    def test_json_sorts_keys(self, tmp_path):
        data = base_scenario([{"kind": "gap", "operator": "abs",
                               "seed": 0, "count": 1}])
        rep = run_scenario(write_scenario(tmp_path, data))
        text = report_json(rep)
        assert "\n" not in text  # one line
        assert json.loads(text) == json.loads(report_json(json.loads(text)))

    @pytest.mark.parametrize("report", [
        {"b": 1.5, "a": [1, 2.0], "c": {"z": True, "y": None, "x": "s"}},
        {"v": float("inf")},
        {"v": np.float64("-inf"), "w": np.float64(0.25)},
        {"z": [{"n": float("nan")}, (float("inf"), 2.0)],
         "a": {"b": {"c": (np.float64("nan"), [float("-inf")])}}},
    ], ids=["finite", "inf", "np-float64", "nested"])
    def test_json_parses_as_the_indented_copy(self, report):
        # the C encoder's line and the fallback through _finite_json
        # both parse to what the indented encoding of the copy parses to
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = report_json(report)
        expected = json.dumps(harness_mod._finite_json(report), indent=2,
                              sort_keys=True)
        assert "\n" not in text
        assert json.loads(text, parse_constant=reject) == json.loads(expected)
        assert list(json.loads(text)) == list(json.loads(expected))

    def test_strip_timings_round_trips(self, tmp_path):
        data = base_scenario([{"kind": "gap", "operator": "abs",
                               "seed": 0, "count": 1}])
        rep = run_scenario(write_scenario(tmp_path, data))
        rep["tasks"][0]["records"][0]["value"] = float("inf")
        out = strip_timings(rep)
        assert "elapsed_s" not in out["tasks"][0]
        assert out["tasks"][0]["records"][0]["value"] == "inf"
        assert strip_timings(out) == out
        assert json.loads(report_json(out)) == out

    @pytest.mark.parametrize("token", [
        "1e400", "NaN", "-Infinity", "-1E+400",
        pytest.param("1" + "0" * 399 + ".0", id="400-digits"),
        pytest.param("9" * 250 + "e99", id="250-digits-e99")])
    def test_load_json_rejects_non_finite_numbers(self, token):
        with pytest.raises(ScenarioError, match="non-finite number"):
            harness_mod.load_json(f'{{"probe": [{token}, 0.0]}}')

    @pytest.mark.parametrize("text", [
        '\ufeff{"a": 1}', '[NaN]', '{"a": -Infinity}', '[1e400]',
        '[-1E+400, 1.0]', pytest.param("1" * 400, id="400-digit-int"),
        pytest.param("[" + "9" * 400 + ".5]", id="400-digit-float"),
        '{"a": 1} x', '[1.0] [2.0]', '{"a": [1.5, {"b": [-2e-3, 7, '
        '1e308, 5e-324, -0.0, [true, null, "e123"]]}]}', '  "s"  ', "",
        '{"a": 1,}'])
    def test_load_json_reads_as_json_loads_with_its_hooks(self, text):
        """Its shared decoders return what ``json.loads`` returns with
        both hooks, or raise the same error with the same text."""
        def read(loads):
            try:
                return repr(loads(text))
            except ValueError as exc:
                return f"{type(exc).__name__}: {exc}"

        finite = harness_mod.finite_float
        assert read(harness_mod.load_json) == read(
            lambda t: json.loads(t, parse_constant=finite,
                                 parse_float=finite))

    @pytest.mark.parametrize("x", [
        np.array([1.5, -0.0, np.inf, np.nan, 5e-324]),
        np.arange(6.0).reshape(2, 3).T, np.arange(-3, 3),
        np.array([[True, False]]), np.float32([0.1, 2.5]), np.zeros((0, 2)),
        np.array(2.5)])
    def test_jsonable_lists_an_array_as_floats(self, x):
        out = harness_mod._jsonable(x)
        expected = [float(v) for v in x.ravel()]
        assert [repr(v) for v in out] == [repr(v) for v in expected]
        assert all(type(v) is float for v in out)


class TestCli:
    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        import monotone_lab.cli as cli_mod

        abs_op = '{"subdiff": {"norm": {"dim": 1}}}'
        calls = [
            ["tail", "--task", '{"n_list": [1, 2]}'],
            ["gap", "--operator", abs_op, "--count", "2", "--seed", "3"],
            ["br", "--mode", "corollary", "--fn", '{"half_sq": {"dim": 1}}',
             "--task", '{"beta": 0.1}'],
            ["gap", "--operator", abs_op, "--count", "3"],
        ]

        def reports():
            out = []
            for argv in calls:
                assert main(argv) == 0, argv
                rep = strip_timings(json.loads(capsys.readouterr().out))
                out.append(rep)
            return out

        reused = reports()
        # the tail call above must not leak its l1 space into the gaps
        assert reused[1]["tasks"][0]["records"][0]["method"] == "resolvent"
        monkeypatch.setattr(cli_mod, "_parser", cli_mod.build_parser)
        assert reports() == reused

    def test_reused_parser_repeats_errors_and_help(self, capsys,
                                                   monkeypatch):
        import monotone_lab.cli as cli_mod

        def outputs():
            out = []
            for argv in (["gap", "--count", "1"], ["gap", "--count", "1"],
                         ["--help"], ["gap", "--help"], ["tail", "--help"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                out.append((exc.value.code, capsys.readouterr()))
            return out

        reused = outputs()
        missing = reused[0]
        assert missing[0] == 2 and reused[1] == missing
        assert "the following arguments are required: --operator" in \
            missing[1].err
        assert [code for code, _ in reused[2:]] == [0, 0, 0]
        monkeypatch.setattr(cli_mod, "_parser", cli_mod.build_parser)
        assert outputs() == reused

    def test_gap_ok(self, capsys):
        code = main(["gap", "--operator",
                     '{"subdiff": {"norm": {"dim": 1}}}',
                     "--seed", "4", "--count", "5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scenario"] == "<inline>"
        assert out["tasks"][0]["status"] == "ok"

    def test_inline_calls_leave_no_temp_files(self, capsys, tmp_path,
                                              monkeypatch):
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        abs_op = '{"subdiff": {"norm": {"dim": 1}}}'
        calls = [
            ["gap", "--operator", abs_op, "--count", "2"],
            ["fitz", "--operator", '{"linear": [[1.0]]}',
             "--points", "[[[1.0], [1.0]]]"],
            ["classify", "--operator", abs_op, "--class", "ni",
             "--task", '{"wstar": [2.0], "wstarstar": [0.0]}'],
            ["br", "--mode", "corollary", "--fn", '{"half_sq": {"dim": 1}}',
             "--task", '{"beta": 0.1}'],
            ["tail", "--task", '{"n_list": [1]}'],
        ]
        for argv in calls:
            assert main(argv) == 0, argv
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_values_are_strict_json(self, capsys):
        # the Fitzpatrick function of the skew map is +inf off its graph
        code = main(["fitz", "--space", '{"dim": 2, "norm": "l2"}',
                     "--operator", '{"linear": [[0.0, 1.0], [-1.0, 0.0]]}',
                     "--points", "[[[1.0, 0.0], [0.0, 0.0]]]"])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        rec = out["tasks"][0]["records"][0]
        assert rec["phi"] == "inf"

    def test_a_gap_probe_of_the_wrong_size_exits_2(self, capsys):
        code = main(["gap", "--space", '{"dim": 2, "norm": "l1"}',
                     "--operator", '{"normal_cone": {"polytope": '
                     '[[-1, -1], [-1, 1], [1, -1], [1, 1]]}}',
                     "--probes", "[[[0.5], [0.2]]]"])
        assert code == 2
        assert "probe has shape (1,), expected (2,)" in \
            capsys.readouterr().err

    def test_a_fitz_point_of_the_wrong_size_exits_2(self, capsys):
        code = main(["fitz", "--operator", '{"linear": [[1.0]]}',
                     "--points", "[[[1.0], [1.0]], [[1.0, 2.0], [1.0, 2.0]]]"])
        assert code == 2
        captured = capsys.readouterr()
        assert "point has shape (2,), expected (1,)" in captured.err
        assert captured.out == ""  # refused before the first point's solve

    @pytest.mark.parametrize("cls, task, message", [
        ("ni", {"wstar": [2.0, 1.0], "wstarstar": [0.0, 1.0]},
         "wstar has shape (2,), expected (1,)"),
        ("fpv", {"window": {"polytope": [[-1.0], [1.0]]}, "w": [0.0],
                 "wstar": [0.0, 0.0]}, "wstar has shape (2,), expected (1,)"),
        ("fp", {"window": {"polytope": [[-1.0], [1.0]]}, "w": [0.0, 0.0],
                "wstar": [0.0]}, "w has shape (2,), expected (1,)"),
        ("strongmax", {"w": [0.0, 0.0], "fuzz": {"polytope": [[-1.0], [1.0]]}},
         "w has shape (2,), expected (1,)"),
        ("strongmax", {"fuzz_side": "primal", "wstar": [0.0, 0.0],
                       "fuzz": {"polytope": [[-1.0], [1.0]]}},
         "wstar has shape (2,), expected (1,)"),
    ])
    def test_a_classify_point_of_the_wrong_size_exits_2(self, capsys, cls,
                                                         task, message):
        code = main(["classify", "--operator", '{"linear": [[1.0]]}',
                     "--class", cls, "--task", json.dumps(task)])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_fitz_of_a_translate_without_shift(self, capsys):
        # d(|x|_2 - <x, (1, 0.5)>) at ((1, 0), (0.5, 0.5)): the pieces grow
        # along s = t u, u the unit vector of x* + tilt, |x* + tilt| > 1
        code = main(["fitz", "--space", '{"dim": 2}', "--operator",
                     '{"subdiff": {"translate": {"inner": {"norm": '
                     '{"dim": 2}}, "tilt": [1.0, 0.5]}}}',
                     "--points", "[[[1.0, 0.0], [0.5, 0.5]]]"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out)["tasks"][0]["records"][0]
        assert (rec["phi"], rec["phi_status"]) == ("inf", "exact")

    def test_a_translate_of_the_wrong_size_exits_2(self, capsys):
        code = main(["fitz", "--space", '{"dim": 2}', "--operator",
                     '{"subdiff": {"translate": {"inner": {"norm": '
                     '{"dim": 2}}, "shift": [1.0]}}}',
                     "--points", "[[[1.0, 0.0], [0.5, 0.5]]]"])
        assert code == 2
        captured = capsys.readouterr()
        assert "shift has shape (1,), expected (2,)" in captured.err
        assert captured.out == ""

    def test_fitz_of_a_folded_sum_is_exact(self, capsys):
        # d(|x| + i_[-1, 1]): phi reads the point as (x, x*), +inf past
        # the domain's end and a staircase corner's value inside it
        op = json.dumps({"subdiff": {"sum": [
            {"norm": {"dim": 1}},
            {"indicator": {"polytope": [[-1.0], [1.0]]}}]}})
        code = main(["fitz", "--operator", op, "--points",
                     "[[[2.0], [0.5]], [[0.5], [2.0]]]"])
        assert code == 0
        recs = json.loads(capsys.readouterr().out)["tasks"][0]["records"]
        assert [(r["phi"], r["phi_status"]) for r in recs] == [
            ("inf", "exact"), (1.5, "exact")]

    def test_run_scenario_accepts_parsed_scenario(self):
        data = base_scenario([{"kind": "gap", "operator": "abs",
                               "seed": 0, "count": 1}])
        rep = run_scenario(data)
        assert rep["scenario"] == "<inline>"
        assert rep["tasks"][0]["status"] == "ok"

    def test_missing_scenario_file_is_config_error(self, capsys):
        assert main(["run", "/nonexistent/scenario.json"]) == 2

    def test_bad_operator_descriptor_is_config_error(self, capsys):
        code = main(["gap", "--operator", '{"gizmo": 1}'])
        assert code == 2

    @pytest.mark.parametrize("desc", [
        '{"normal_cone": {"ball": {"radius": 1.0}}}',  # no center
        '{"graph": [1.0]}',  # a point that is not an (x, x*) pair
    ])
    def test_malformed_operator_descriptor_is_config_error(self, capsys,
                                                           desc):
        code = main(["gap", "--operator", desc])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["tail", "--task", '{"n_list": [1]}',
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("task_index,kind,record_index,field,value")

    def test_run_scenario_file(self, capsys, tmp_path):
        data = base_scenario([{"kind": "gap", "operator": "abs",
                               "seed": 0, "count": 2}])
        path = write_scenario(tmp_path, data)
        assert main(["run", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tasks"][0]["status"] == "ok"

    def test_errored_task_exit_code(self, capsys, tmp_path):
        # the premise of br point fails at u = 5: recorded, then exit 3
        data = base_scenario([{"kind": "br", "mode": "point", "seed": 0,
                               "fn": {"half_sq": {"dim": 1}}, "u": [5.0],
                               "alpha": 0.1, "beta": 0.1}])
        assert main(["run", write_scenario(tmp_path, data)]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["tasks"][0]["status"] == "error"

    @pytest.mark.parametrize("token", [
        "NaN", "Infinity", "-Infinity", "1e400", "-1E+400",
        pytest.param("1" + "0" * 399 + ".0", id="400-digits")])
    def test_non_finite_scenario_file_is_config_error(self, capsys,
                                                      tmp_path, token):
        text = json.dumps(base_scenario([{"kind": "gap", "operator": "abs",
                                          "seed": 0, "probes": "PROBES"}]))
        path = tmp_path / "scenario.json"
        path.write_text(text.replace('"PROBES"', f"[[[{token}], [0.0]]]"),
                        encoding="utf-8")
        assert main(["run", str(path)]) == 2
        assert "non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gap", "--operator", '{"linear": [[NaN]]}', "--count", "1"],
        ["gap", "--operator", '{"linear": [[1.0]]}',
         "--probes", "[[[Infinity], [0.0]]]"],
        ["fitz", "--operator", '{"linear": [[1.0]]}',
         "--points", "[[[-Infinity], [1.0]]]"],
        ["classify", "--operator", '{"linear": [[1.0]]}', "--class", "ni",
         "--task", '{"wstar": [NaN], "wstarstar": [0.0]}'],
        ["gap", "--operator", '{"linear": [[1e400]]}', "--count", "1"],
        ["gap", "--operator", '{"linear": [[1.0]]}',
         "--probes", "[[[-1E+400], [0.0]]]"],
        pytest.param(["gap", "--operator", '{"linear": [[1.0]]}', "--probes",
                      "[[[1" + "0" * 399 + ".0], [0.0]]]"], id="400-digits"),
    ])
    def test_non_finite_inline_json_is_config_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "non-finite number" in capsys.readouterr().err

    BIG_INT = "1" + "0" * 400  # an integer too large for a float

    def test_an_operator_integer_too_large_is_config_error_inline(
            self, capsys):
        assert main(["gap", "--space", '{"dim": 1, "norm": "l1"}',
                     "--operator", f'{{"linear": [[{self.BIG_INT}]]}}',
                     "--probes", "[[[1.0], [1.0]]]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("operator 'op' is malformed: OverflowError: int too large "
                "to convert to float") in captured.err

    def test_an_operator_integer_too_large_is_config_error_in_run(
            self, capsys, tmp_path):
        data = base_scenario([{"kind": "gap", "operator": "big", "seed": 0,
                               "count": 1}],
                             operators={"big": {"shift": {
                                 "inner": ABS, "dx": [int(self.BIG_INT)]}}})
        assert main(["run", write_scenario(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("operator 'big' is malformed: OverflowError: int too large "
                "to convert to float") in captured.err

    def test_non_finite_eta_flag_is_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--operator", '{"linear": [[1.0]]}', "--eta", "nan"])
        assert exc.value.code == 2
        assert "--eta" in capsys.readouterr().err

    def test_non_finite_probe_is_rejected(self):
        data = base_scenario([{"kind": "gap", "operator": "abs", "seed": 0,
                               "probes": [[[float("nan")], [0.0]]]}])
        with pytest.raises(ScenarioError, match="non-finite"):
            run_scenario(data)

    def test_solver_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        import monotone_lab.cli as cli_mod

        def boom(path):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        data = base_scenario([{"kind": "gap", "operator": "abs",
                               "seed": 0, "count": 1}])
        assert main(["run", write_scenario(tmp_path, data)]) == 3


# -- scenario fuzzing ---------------------------------------------------------
# Small scenario dicts, mostly well formed, with bad values mixed in:
# unknown norms and kinds, missing keys, wrong dimensions, NaN and
# infinities (written as JSON's non-standard constants), subnormal and
# huge numbers.  Operator sums, parallel sums and sum_test are left out:
# their resolvents run Douglas-Rachford, which on entries near 1e17
# runs to its iteration cap at every call, so that one scenario can
# take minutes.  Other valid scenarios still take tens of seconds (l1/linf
# distances to non-box 2-D sets run a descent per graph point), so the
# examples are drawn from a fixed seed to keep the test's time steady.

FUZZ_NUM = st.one_of(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 1.0, -2.0, 1e-310, 1e17, -1e300] * 4
                    + [float("nan"), float("inf")]))
FUZZ_NORM = st.sampled_from(["l1", "l2", "linf", "l1", "l2", "linf", "l3"])


def fuzz_vec(d):
    return st.lists(FUZZ_NUM, min_size=d, max_size=d)


@st.composite
def fuzz_set(draw, d):
    kind = draw(st.sampled_from(["polytope", "ball", "capsule"] * 3
                                + ["bad"]))
    if kind == "polytope":
        return {"polytope": draw(st.lists(fuzz_vec(d), min_size=1,
                                          max_size=4))}
    if kind == "ball":
        return {"ball": {"center": draw(fuzz_vec(d)),
                         "radius": abs(draw(FUZZ_NUM)),
                         "norm": draw(FUZZ_NORM)}}
    if kind == "capsule":
        return {"capsule": {"a": draw(fuzz_vec(d)), "b": draw(fuzz_vec(d)),
                            "radius": abs(draw(FUZZ_NUM)),
                            "norm": draw(FUZZ_NORM)}}
    return draw(st.sampled_from([{}, {"blob": 1}, {"ball": {"radius": 1}},
                                 {"polytope": "abc"}, {"polytope": []}]))


@st.composite
def fuzz_fn(draw, d):
    kind = draw(st.sampled_from(["norm", "half_sq", "indicator", "support",
                                 "affine"] * 3 + ["bad"]))
    if kind == "norm":
        return {"norm": {"dim": d, "kind": draw(FUZZ_NORM),
                         "scale": draw(FUZZ_NUM)}}
    if kind == "half_sq":
        return {"half_sq": {"dim": d}}
    if kind in ("indicator", "support"):
        return {kind: draw(fuzz_set(d))}
    if kind == "affine":
        return {"affine": {"a": draw(fuzz_vec(d)), "c": draw(FUZZ_NUM)}}
    return draw(st.sampled_from([{}, {"norm": {}}, {"gizmo": 2}]))


@st.composite
def fuzz_operator(draw, d, depth=1):
    kind = draw(st.sampled_from(["subdiff", "linear", "graph", "normal_cone",
                                 "support_subdiff", "wrap"] * 3 + ["bad"]))
    if kind == "subdiff":
        return {"subdiff": draw(fuzz_fn(d))}
    if kind == "linear":
        return {"linear": draw(st.lists(fuzz_vec(d), min_size=d,
                                        max_size=d))}
    if kind == "graph":
        return {"graph": draw(st.lists(
            st.tuples(fuzz_vec(d), fuzz_vec(d)).map(list),
            min_size=1, max_size=3))}
    if kind in ("normal_cone", "support_subdiff"):
        return {kind: draw(fuzz_set(d))}
    if kind == "wrap" and depth > 0:
        inner = draw(fuzz_operator(d, depth - 1))
        return draw(st.sampled_from([
            {"inverse": inner},
            {"shift": {"inner": inner, "dx": [0.5] * d}},
        ]))
    return draw(st.sampled_from([{}, {"gizmo": 1}, {"linear": "x"},
                                 {"tail": 0}, {"graph": [[1.0]]}]))


@st.composite
def fuzz_task(draw, d):
    kind = draw(st.sampled_from(["gap", "fitz", "classify", "br",
                                 "tail_experiment", "nope"]))
    t = {"kind": kind, "operator": "op", "seed": draw(st.integers(0, 3)),
         "budget": draw(st.sampled_from([1, 4, 8, 4, 8, 0, -1]))}
    if kind == "gap":
        if draw(st.booleans()):
            t["probes"] = [[draw(fuzz_vec(d)), draw(fuzz_vec(d))]]
        else:
            t["count"] = draw(st.integers(0, 2))
        side = draw(st.sampled_from([None, "dual_fuzz", "primal_fuzz"]))
        if side:
            t[side] = draw(fuzz_set(d))
    elif kind == "fitz":
        t["points"] = [[draw(fuzz_vec(d)), draw(fuzz_vec(d))]]
    elif kind == "classify":
        cls = draw(st.sampled_from(["ni", "fpv", "fp", "strongmax", "zz"]))
        t.update({"class": cls, "w": draw(fuzz_vec(d)),
                  "wstar": draw(fuzz_vec(d)),
                  "wstarstar": draw(fuzz_vec(d))})
        if cls in ("fpv", "fp"):
            t["window"] = draw(fuzz_set(d))
        if cls == "strongmax":
            t["fuzz"] = draw(fuzz_set(d))
            t["fuzz_side"] = draw(st.sampled_from(["dual", "primal"]))
    elif kind == "br":
        del t["operator"]
        t.update({"mode": draw(st.sampled_from(
                      ["point", "corollary", "van", "witness", "zz"])),
                  "fn": draw(fuzz_fn(d)), "u": draw(fuzz_vec(d)),
                  "alpha": draw(FUZZ_NUM), "beta": draw(FUZZ_NUM),
                  "eps": draw(FUZZ_NUM), "x": draw(fuzz_vec(d)),
                  "xstar": draw(fuzz_vec(d))})
    elif kind == "tail_experiment":
        del t["operator"]
        t["n_list"] = draw(st.lists(st.integers(0, 3), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        del t[draw(st.sampled_from(sorted(t)))]
    return t


@st.composite
def fuzz_scenario(draw):
    d = draw(st.sampled_from([1, 2]))
    # now and then the descriptors use the other dimension
    dd = d if draw(st.integers(0, 5)) else 3 - d
    return {"schema": draw(st.sampled_from([1, 1, 1, 1, 2])),
            "space": {"dim": d, "norm": draw(FUZZ_NORM)},
            "operators": {"op": draw(fuzz_operator(dd))},
            "tasks": [draw(fuzz_task(dd))]}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


class TestScenarioFuzz:
    @given(data=fuzz_scenario())
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_cli_exits_cleanly_with_strict_json(self, data):
        with tempfile.TemporaryDirectory() as work, \
                tempfile.TemporaryDirectory() as private_tmp, \
                pytest.MonkeyPatch.context() as mp:
            path = os.path.join(work, "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(data))  # NaN and Infinity stay in
            mp.setenv("TMPDIR", private_tmp)
            mp.setattr(tempfile, "tempdir", private_tmp)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["run", path])
            assert code in (0, 2, 3), err.getvalue()
            assert "internal error" not in err.getvalue()
            if code != 2:
                report = json.loads(out.getvalue(),
                                    parse_constant=_reject_constant)
                errored = [t["status"] == "error" for t in report["tasks"]]
                assert any(errored) == (code == 3)
            assert os.listdir(private_tmp) == []
