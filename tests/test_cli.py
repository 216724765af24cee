"""The CLI's one-pass dispatch: a call whose first word is a subcommand
is read by the option table, or else by that subcommand's parser alone,
with the exit code, report and messages of a pass through the
top-level parser.  Every option of an inline subcommand sets a task
field that its runner reads, and every call that the benchmark builds
is read by the table."""

import argparse
import codecs
import dataclasses
import enum
import importlib.util
import inspect
import json
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import monotone_lab
import monotone_lab.cli as cli_mod
import monotone_lab.harness as harness_mod
from monotone_lab.cli import main

ABS = '{"subdiff": {"norm": {"dim": 1}}}'
SCENARIO = {"schema": 1, "space": {"dim": 1, "norm": "l2"},
            "operators": {"abs": json.loads(ABS)},
            "tasks": [{"kind": "gap", "operator": "abs", "seed": 1,
                       "count": 2}]}

# every subcommand: a valid call, an abbreviated option, the
# --opt=value form, a missing required option, a bad choice, a
# non-finite number, a repeated option, a negative number, a --task
# that is no object, help, leftovers and no command at all
ARGVS = [
    ["run", "{scenario}"],
    ["run", "{scenario}", "--format", "csv"],
    ["run"],
    ["run", "{scenario}", "extra"],
    ["gap", "--operator", ABS, "--count", "2", "--seed", "3"],
    ["gap", "--oper", ABS, "--count", "2"],
    ["gap", f"--operator={ABS}", "--count=2", "--probes=[[[1.0], [0.5]]]"],
    ["gap", "--count", "1"],
    ["gap", "--operator", ABS, "--probes", "[[[1e400], [0.0]]]"],
    ["gap", "--operator", ABS, "--space", "{}"],
    ["gap", "--operator", ABS, "--count", "1", "--count", "2"],
    ["gap", "--operator", ABS, "--seed", "-1"],
    ["gap", "--operator", '{"linear": [[1.0]]}', "--task", "[1]"],
    ["gap", "--operator", ABS, "--task", "5"],
    ["gap", "--operator", ABS, "--task", "null"],
    ["fitz", "--operator", '{"linear": [[1.0]]}',
     "--points", "[[[1.0], [1.0]]]"],
    ["fitz", "--operator", '{"linear": [[1.0]]}'],
    ["classify", "--operator", ABS, "--class", "ni",
     "--task", '{"wstar": [2.0], "wstarstar": [0.0]}'],
    ["classify", "--operator", ABS, "--class", "zz"],
    ["classify", "--oper", ABS, "--cl", "ni", "--task", '{"wstar": [NaN]}'],
    ["br", "--mode", "corollary", "--fn", '{"half_sq": {"dim": 1}}',
     "--task", '{"beta": 0.1}'],
    ["br", "--mode", "zz", "--fn", '{"half_sq": {"dim": 1}}'],
    ["br", "--mode=corollary"],
    ["tail", "--n-list", "[1, 2]"],
    ["tail", "--n-list=[1]", "--task", '{"n_list": [2]}', "--format=csv"],
    ["tail", "--space", '{"dim": 3, "norm": "l2"}', "--n-list", "[2]"],
    ["tail", "--n-list", "[1e400]"],
    ["--help"],
    ["-h"],
    ["gap", "--help"],
    ["tail", "-h"],
    [],
    ["nope", "--count", "1"],
    ["--count", "1"],
]


def _outcome(argv, capsys):
    """The exit code, stdout with every elapsed_s cut and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r'"elapsed_s": [^,}]*', "", out), err


def _top_level_parser():
    """A parser that hands every call to the top-level pass."""
    ap = cli_mod.build_parser()
    ap.subcommands = {}
    return ap


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_a_call_reads_as_through_the_top_level_parser(argv, capsys,
                                                      monkeypatch, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO), encoding="utf-8")
    argv = [str(path) if a == "{scenario}" else a for a in argv]
    one_pass = _outcome(argv, capsys)
    monkeypatch.setattr(cli_mod, "_parser", _top_level_parser)
    assert _outcome(argv, capsys) == one_pass


def test_the_table_covers_every_subcommand():
    assert {a[0] for a in ARGVS if a} >= set(cli_mod.build_parser()
                                             .subcommands)


def test_tail_takes_no_space(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tail", "--space", '{"dim": 3, "norm": "l2"}',
              "--n-list", "[2]"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "monotone-lab: error: unrecognized arguments: --space "
        '{"dim": 3, "norm": "l2"}\n')
    # without it, the rows are on the l1 pair
    assert main(["tail", "--n-list", "[2]"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in report["tasks"][0]["records"]] == [2]


def test_an_empty_space_is_still_refused(capsys):
    assert main(["gap", "--operator", ABS, "--space", "{}"]) == 2
    assert "space descriptor needs a 'dim' key" in capsys.readouterr().err


def test_two_calls_share_no_default_object(capsys, monkeypatch):
    scenarios = []
    real = cli_mod.run_scenario

    def spy(scenario):
        scenarios.append(scenario)
        return real(scenario)

    monkeypatch.setattr(cli_mod, "run_scenario", spy)
    for argv in (["gap", "--operator", ABS, "--count", "1"],
                 ["gap", "--operator", ABS, "--count", "1"],
                 ["tail", "--n-list", "[1]"], ["tail"], ["tail"]):
        assert main(argv) == 0
        capsys.readouterr()
    first, second = scenarios[:2]
    assert first == second
    assert first["space"] is not second["space"]
    assert first["tasks"][0] is not second["tasks"][0]
    first["space"]["dim"] = 5  # a caller that edits its scenario
    assert scenarios[1]["space"] == {"dim": 1, "norm": "l2"}
    defaults = [s["tasks"][0]["n_list"] for s in scenarios[3:]]
    assert defaults[0] == defaults[1] == [1, 2, 4, 8, 16]
    assert defaults[0] is not defaults[1]
    assert scenarios[3]["space"] is not scenarios[4]["space"]
    # the reused parser's namespace carries no decoded default
    args, _ = cli_mod._parser().subcommands["gap"].parse_known_args(
        ["--operator", ABS])
    assert args.space is None and args.task is None


def test_a_report_path_that_cannot_be_written_exits_2(capsys, tmp_path):
    # a directory: open() raises IsADirectoryError, an OSError
    assert main(["tail", "--n-list", "[1]", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_a_task_that_is_no_json_object_exits_2(capsys):
    for text in ("[1]", "5", "null", '"x"'):
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--operator", '{"linear": [[1.0]]}', "--task", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --task: not a JSON object: {text}\n")


def test_a_scenario_path_that_is_no_file_exits_2(capsys, tmp_path):
    assert main(["run", str(tmp_path)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        "error: [Errno 2] No such file or directory: "
        f"{str(tmp_path / 'missing.json')!r}\n")


def test_a_broken_stdout_pipe_exits_3(capsys, monkeypatch):
    class Broken:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Broken())
    assert main(["tail", "--n-list", "[1]"]) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: BrokenPipeError: ")


# each inline subcommand's call with its required options; SAMPLES holds
# a value for each option that a call may leave out
CALLS = {
    "gap": ["--operator", ABS],
    "fitz": ["--operator", '{"linear": [[1.0]]}',
             "--points", "[[[1.0], [1.0]]]"],
    "classify": ["--operator", ABS, "--class", "ni",
                 "--task", '{"wstar": [2.0], "wstarstar": [0.0]}'],
    "br": ["--mode", "corollary", "--fn", '{"half_sq": {"dim": 1}}',
           "--task", '{"beta": 0.1}'],
    "tail": [],
}
SAMPLES = {"--seed": "1", "--budget": "3", "--eta": "0.5", "--count": "2",
           "--probes": "[[[1.0], [0.5]]]", "--n-list": "[1]"}

# the options that set no task field: the space, the task itself and
# the report's destination and format
NOT_FIELDS = {"help", "space", "task", "out", "format"}

INLINE_OPTIONS = [
    (name, action.option_strings[0], action.dest)
    for name, p in cli_mod.build_parser().subcommands.items()
    if name != "run"
    for action in p._actions
    if action.option_strings and action.dest not in NOT_FIELDS]


def _parse(argv: list[str]) -> argparse.Namespace:
    """argparse's Namespace of a call that its subcommand's parser reads
    with no leftover and no exit."""
    try:
        args, extra = cli_mod._parser().subcommands[argv[0]] \
            .parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    except SystemExit:
        raise AssertionError(f"argparse refuses {argv}") from None
    assert extra == []
    return args


def _inline(argv: list[str]) -> dict:
    """The scenario of an inline call, parsed but not run."""
    return cli_mod._inline_scenario(_parse(argv))


@pytest.mark.parametrize("name,flag,field", INLINE_OPTIONS,
                         ids=[f"{n} {f}" for n, f, _ in INLINE_OPTIONS])
def test_every_option_sets_a_field_that_its_runner_reads(name, flag, field,
                                                         monkeypatch):
    rest = CALLS[name]
    if flag not in rest:
        rest = rest + [flag, SAMPLES[flag]]
    scenario = _inline([name, *rest])
    assert field in scenario["tasks"][0]
    read, real = [], harness_mod._field

    def spy(task, key, *args, **kwargs):
        read.append(key)
        return real(task, key, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "_field", spy)
    harness_mod.parse_scenario(scenario)
    assert field in read


@pytest.mark.parametrize("argv", [
    ["fitz", *CALLS["fitz"], "--eta", "0.5"],
    ["classify", *CALLS["classify"], "--eta", "0.5"],
    ["br", *CALLS["br"], "--eta", "0.5"],
    ["br", *CALLS["br"], "--budget", "5"],
    ["tail", "--eta", "0.5"],
    ["tail", "--budget", "5"],
    ["tail", "--seed", "3"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_an_option_that_no_runner_reads_is_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


def _load_workloads():
    """``perfbench/workloads.py``, which imports no part of the package;
    it is only read here.  Its dataclasses look their module up in
    ``sys.modules``."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_benchmark_call_parses(workload):
    """Round 0 of seed 1: the option table reads each CLI call as
    argparse does, so that none goes through argparse's option loop,
    and its scenario passes ``parse_scenario``; nothing runs."""
    inline = 0
    for op in WORKLOADS.make_rounds(workload, 1, 1)[0]:
        if op.argv is None:  # a library call
            continue
        assert cli_mod._read_table(op.argv) == _parse(op.argv), op.name
        if op.argv[0] == "run":
            scenario = op.scenario
        else:
            scenario, inline = _inline(op.argv), inline + 1
        harness_mod.parse_scenario(scenario)
    if workload == "cli-mix":
        assert inline > 0


_METHODS = (sys.modules.get("numpy._core._methods")
            or sys.modules["numpy.core._methods"])  # the ndarray shims
# numpy's and the stdlib's Python-level wrappers that package functions
# on the benchmark's path call at their C entry points instead, by
# (module, function): ``ndarray.clip``, ``numpy.linalg`` and
# ``np.random.default_rng`` are not among them
REMOVED_WRAPPERS = {
    ("spaces", "parse"): [type(enum.Enum).__call__],
    ("spaces", "first_min"): [np.min, np.argmax],
    ("spaces", "row_norms"): [np.sum, np.max],
    ("sets", "dist"): [_METHODS._sum],
    ("sets", "interior_mask"): [_METHODS._all],
    ("sets", "_probes"): [np.reshape],
    ("sets", "_box_bounds"): [_METHODS._amin, _METHODS._amax,
                              np.count_nonzero, np.all, _METHODS._all],
    ("operators", "resolvent"): [np.full],
    ("operators", "__post_init__"): [np.atleast_2d],
    ("operators", "_domain_scale"): [np.max],
    ("operators", "graph_rows"): [np.any, np.vstack],
    ("classifiers", "_windowed_check"): [np.full],
    ("classifiers", "_window_probes"): [np.vstack, _METHODS._all],
    ("classifiers", "check_fp"): [dataclasses.replace],
    ("harness", "parse"): [_METHODS._all],
    ("harness", "load_scenario"): [codecs.BufferedIncrementalDecoder.decode],
    ("harness", "report_json"): [json.JSONEncoder.encode],
}


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_no_removed_wrapper_on_the_benchmark_path(workload, tmp_path,
                                                   capsys):
    """Round 0 of seed 1 through ``cli.main`` (or its library call)
    under ``sys.setprofile``: no package function calls a wrapper that
    ``REMOVED_WRAPPERS`` lists for it."""
    package = os.path.dirname(cli_mod.__file__)
    removed = {inspect.unwrap(f).__code__: f for fs in
               REMOVED_WRAPPERS.values() for f in fs}
    calls = []

    def profile(frame, event, arg):
        if event != "call" or frame.f_code not in removed:
            return
        caller = frame.f_back.f_code
        module = os.path.splitext(os.path.basename(caller.co_filename))[0]
        key = (module, caller.co_name)
        if (caller.co_filename.startswith(package)
                and removed[frame.f_code] in REMOVED_WRAPPERS.get(key, ())):
            calls.append((key, frame.f_code.co_name))

    ran = 0
    for i, op in enumerate(WORKLOADS.make_rounds(workload, 1, 1)[0]):
        argv = op.argv
        if op.scenario is not None:
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(op.scenario), encoding="utf-8")
            argv = [str(path) if a == "{scenario}" else a for a in argv]
        sys.setprofile(profile)
        try:
            if op.call is not None:
                op.call(monotone_lab)
            else:
                ran += main(argv) == 0
        finally:
            sys.setprofile(None)
    capsys.readouterr()
    assert ran > 0
    assert calls == []


# a value for each option that its type and choices accept
VALID = {"space": '{"dim": 1, "norm": "l2"}', "operator": ABS,
         "task": '{"beta": 0.1}', "seed": "1", "budget": "3", "eta": "0.5",
         "probes": "[[[1.0], [0.5]]]", "count": "2",
         "points": "[[[1.0], [1.0]]]", "class": "ni", "mode": "corollary",
         "fn": '{"half_sq": {"dim": 1}}', "n_list": "[1]",
         "out": "report.json", "format": "csv"}
# valid and invalid JSON, non-finite and negative numbers, "--", a
# word that reads as an option and words inside and outside the choices
VALUES = [*VALID.values(), "{}", "null", "[1]", "5", "2.5", '"x"', "{",
          "abc", "NaN", "[1e400]", "-1", "-0.5", "--", "-x", "zz", "fpv",
          "json", "point", ""]
# words that no subcommand takes, help and the flags of every subcommand
FLAGS = sorted({"--nope", "-h", "--help", "-x",
                *(f for flags in cli_mod._FLAGS.values() for f in flags)})


@st.composite
def calls(draw):
    """A subcommand, maybe a scenario path, its required options, each
    left out one time in four, and options that are exact, abbreviated,
    in the --opt=value form, given without a value, repeated or unknown,
    with values that are valid or not."""
    name = draw(st.sampled_from(sorted(cli_mod._FLAGS)))
    argv = [name]
    if name == "run" and draw(st.integers(0, 3)):
        argv.append(draw(st.sampled_from(["s.json", "-s.json", "--", ""])))
    own = list(cli_mod._FLAGS[name].items())
    for flag, (field, kwargs) in own:
        if kwargs.get("required") and draw(st.integers(0, 3)):
            argv += [flag, VALID[field]]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 2)):
            flag, (field, _) = draw(st.sampled_from(own))
            value = VALID[field] if draw(st.booleans()) else \
                draw(st.sampled_from(VALUES))
        else:
            flag, value = draw(st.sampled_from(FLAGS)), \
                draw(st.sampled_from(VALUES))
        form = draw(st.sampled_from(["exact"] * 5 + ["short", "=", "bare"]))
        if form == "short" and len(flag) > 3:
            argv += [flag[:draw(st.integers(3, len(flag) - 1))], value]
        elif form == "=":
            argv.append(f"{flag}={value}")
        elif form == "bare":
            argv.append(flag)
        else:
            argv += [flag, value]
    return argv


@settings(max_examples=600, deadline=None)
@given(calls())
# values that argparse reads as an option and as the end of options
@example(["tail", "--out", "-x"])
@example(["tail", "--out", "--"])
def test_the_table_reads_a_call_as_argparse_does(argv):
    """Wherever the table answers, argparse builds the same Namespace,
    with no leftover and no exit."""
    table = cli_mod._read_table(argv)
    if table is not None:
        assert table == _parse(argv)
