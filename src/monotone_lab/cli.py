"""Command line interface.

Subcommands: run (scenario file), gap, fitz, classify, br, tail.  The
inline subcommands accept JSON descriptors on the command line and are
thin wrappers that synthesize a one-task scenario.  Exit codes: 0 when
every task ran (verdicts may still be negative), 2 on parse or
configuration errors (a NaN or infinite number among them, a scenario
path that cannot be read or a report path that cannot be written), 3
when a task is recorded with status "error" or the solver fails
outright.  A call in the canonical form is read from the option table
(``_read_table``); argparse reads every other call, so every message is
argparse's.
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


def _json_object(text: str) -> dict:
    value = _json_arg(text)
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError(f"not a JSON object: {text}")
    return value


# an option: the field it sets, which names its flag (n_list is
# --n-list), and argparse's keywords
_SPACE = ("space", {"type": _json_arg, "help": "space descriptor, e.g. "
                    '\'{"dim":2,"norm":"l2"}\''})
_OPERATOR = ("operator", {"type": _json_arg, "required": True,
                          "help": "operator descriptor (JSON)"})
_TASK = ("task", {"type": _json_object,
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


def _flags(options) -> dict:
    """Flag -> (the field it sets, argparse's keywords), for ``options``
    and then the report's, in the order the parser adds them."""
    return {"--" + field.replace("_", "-"): (field, kwargs)
            for field, kwargs in (*options, *_OUTPUT)}


# each subcommand's flags, which its parser and ``_read_table`` share
_FLAGS = {"run": _flags(()), **{name: _flags(options) for name,
                                (_, _, options) in _INLINE.items()}}


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
    for name, (help_text, _, _) in _INLINE.items():
        ap.subcommands[name] = sub.add_parser(name, help=help_text)
    for name, p in ap.subcommands.items():
        for flag, (_, kwargs) in _FLAGS[name].items():
            p.add_argument(flag, **kwargs)
    return ap


def _value(kwargs: dict, text: str):
    """argparse's reading of an option's text: its type, then its
    choices."""
    value = kwargs["type"](text) if "type" in kwargs else text
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _read_table(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace that the parser of the subcommand ``argv[0]`` builds
    from the rest of ``argv``, where the rest is ``run``'s scenario path
    and then ``--option value`` pairs, each option given once by its
    whole flag, with a value that does not start with "-" and that its
    type and choices accept, and no required option left out.  Any other
    call (an abbreviation, ``--opt=value``, a repeated or unknown option,
    ``-h``, a value that argparse refuses) is None, for argparse to read
    with its own messages."""
    name, rest = argv[0], argv[1:]
    args = {"command": name}
    if name == "run":
        if not rest or rest[0].startswith("-"):
            return None
        args["scenario"], rest = rest[0], rest[1:]
    flags = _FLAGS[name]
    if len(rest) % 2:
        return None
    try:
        for flag, text in zip(rest[::2], rest[1::2]):
            option = flags.get(flag)
            if option is None or option[0] in args or text.startswith("-"):
                return None
            field, kwargs = option
            args[field] = _value(kwargs, text)
        for field, kwargs in flags.values():
            if field not in args:
                if kwargs.get("required"):
                    return None
                # as argparse, which converts a text default
                default = kwargs.get("default")
                args[field] = _value(kwargs, default) \
                    if isinstance(default, str) else default
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**args)


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
    elif (args := _read_table(argv)) is None:
        # a call off the table: the rest is what a top-level pass would
        # hand this parser; a leftover is the top-level parser's error,
        # with its usage line
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
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # internal solver panic
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
