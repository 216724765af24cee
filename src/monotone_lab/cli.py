"""Command line interface.

Subcommands: run (scenario file), gap, fitz, classify, br, tail.  The
inline subcommands accept JSON descriptors on the command line and are
thin wrappers that synthesize a one-task scenario.  Exit codes: 0 when
every task ran (verdicts may still be negative), 2 on parse or
configuration errors (a NaN or infinite number among them, or a report
path that cannot be written), 3 when a task is recorded with status
"error" or the solver fails outright.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .harness import (BR_MODES, CLASSIFY_CLASSES, ScenarioError,
                      finite_float, load_json, report_csv, report_json,
                      run_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _json_arg(text: str):
    try:
        return load_json(text)
    except ValueError as exc:  # a decode error or a non-finite number
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from exc


# an option: the field it sets, which names its flag (n_list is
# --n-list), and argparse's keywords
_SPACE = ("space", {"type": _json_arg, "help": "space descriptor, e.g. "
                    '\'{"dim":2,"norm":"l2"}\''})
_OPERATOR = ("operator", {"type": _json_arg, "required": True,
                          "help": "operator descriptor (JSON)"})
_TASK = ("task", {"type": _json_arg,
                  "help": "extra task fields (JSON object)"})
_SEED = ("seed", {"type": int, "default": 0})
_BUDGET = ("budget", {"type": int})
_OUTPUT = (("out", {"help": "write the report here instead of stdout"}),
           ("format", {"choices": ["json", "csv"], "default": "json"}))

# each inline subcommand: its help, its task kind and its options.  The
# space, the operator (which the task names "op") and the task itself
# come from --space, --operator and --task; every other option sets the
# task field it is named for
_INLINE = {
    "gap": ("gap evaluation at probe points", "gap", (
        _SPACE, _OPERATOR, _TASK, _SEED, _BUDGET,
        ("eta", {"type": finite_float}),
        ("probes", {"type": _json_arg,
                    "help": "probe list [[x, xstar], ...] (JSON)"}),
        ("count", {"type": int,
                   "help": "seeded probe count when none are given"}))),
    "fitz": ("Fitzpatrick values and extension membership", "fitz", (
        _SPACE, _OPERATOR, _TASK, _SEED, _BUDGET,
        ("points", {"type": _json_arg, "required": True,
                    "help": "probe list [[ystar, ystarstar], ...]"}))),
    "classify": ("operator class checks", "classify", (
        _SPACE, _OPERATOR, _TASK, _SEED, _BUDGET,
        ("class", {"required": True, "choices": CLASSIFY_CLASSES}))),
    "br": ("approximate-minimizer subgradient procedures", "br", (
        _SPACE, _TASK, _SEED,
        ("mode", {"required": True, "choices": BR_MODES}),
        ("fn", {"type": _json_arg, "required": True,
                "help": "function descriptor (JSON)"}))),
    # the tail operator lives on the l1 pair of each size, so no --space;
    # argparse decodes a text default on each call, a fresh list each time
    "tail": ("tail truncation experiment", "tail_experiment", (
        _TASK, ("n_list", {"type": _json_arg,
                           "default": "[1, 2, 4, 8, 16]"}))),
}

# the fields that an option fills only where --task lacks them; any
# other option that is given replaces its field
_FILLS = ("seed", "count", "n_list")


def build_parser() -> argparse.ArgumentParser:
    """A new parser.  Its ``subcommands`` maps each subcommand's name to
    the parser that reads the rest of its argv.  A JSON option defaults
    to None, or to a text that argparse decodes on each call, so a
    reused parser shares no object between calls."""
    ap = argparse.ArgumentParser(
        prog="monotone-lab",
        description="numerical analysis toolkit for monotone operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    ap.subcommands = {"run": run_p}
    for name, (help_text, _, options) in _INLINE.items():
        p = ap.subcommands[name] = sub.add_parser(name, help=help_text)
        for field, kwargs in options:
            p.add_argument("--" + field.replace("_", "-"), **kwargs)
    for p in ap.subcommands.values():
        for field, kwargs in _OUTPUT:
            p.add_argument("--" + field, **kwargs)
    return ap


def _inline_scenario(args: argparse.Namespace) -> dict:
    _, kind, options = _INLINE[args.command]
    task = {} if args.task is None else dict(args.task)
    scenario = {"schema": 1, "space": {"dim": 1, "norm": "l2"},
                "operators": {}, "tasks": [task]}
    for field, _ in options:
        value = getattr(args, field)
        if value is None or field == "task":
            continue
        if field == "space":
            scenario["space"] = value
        elif field == "operator":
            scenario["operators"]["op"] = value
            task["operator"] = "op"
        elif field in _FILLS:
            task.setdefault(field, value)
        else:
            task[field] = value
    task["kind"] = kind
    return scenario


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = report_json(report) if args.format == "json" else \
        report_csv(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:  # a report path that cannot be written
            raise ScenarioError(str(exc)) from exc
    else:
        print(text)


# built on the first call, so that importing the module stays cheap, and
# then reused: building the tree of subcommands costs about as much as a
# small inline task
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = _parser()
    command = ap.subcommands.get(argv[0]) if argv else None
    if command is None:  # help, an unknown command or none at all
        args = ap.parse_args(argv)
    else:
        # the rest is what a top-level pass would hand this parser; a
        # leftover is the top-level parser's error, with its usage line
        args, extra = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            ap.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command == "run":
            report = run_scenario(args.scenario)
        else:
            report = run_scenario(_inline_scenario(args))
        _emit(report, args)
        if any(t["status"] == "error" for t in report["tasks"]):
            return EXIT_SOLVER
        return EXIT_OK
    except (ScenarioError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # internal solver panic
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
