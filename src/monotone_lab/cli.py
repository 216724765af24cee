"""Command line interface.

Subcommands: run (scenario file), gap, fitz, classify, br, tail.  The
inline subcommands accept JSON descriptors on the command line and are
thin wrappers that synthesize a one-task scenario.  Exit codes: 0 when
every task ran (verdicts may still be negative), 2 on parse or
configuration errors (a NaN or infinite number among them), 3 when a
task is recorded with status "error" or the solver fails outright.
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


def build_parser() -> argparse.ArgumentParser:
    """A new parser.  Its ``subcommands`` maps each subcommand's name to
    the parser that reads the rest of its argv.  The JSON options default
    to None, and ``_inline_scenario`` builds a fresh default for each
    call, so a reused parser shares no object between calls."""
    ap = argparse.ArgumentParser(
        prog="monotone-lab",
        description="numerical analysis toolkit for monotone operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    _common_output(run_p)
    ap.subcommands = {"run": run_p}

    for name, help_text in (
        ("gap", "gap evaluation at probe points"),
        ("fitz", "Fitzpatrick values and extension membership"),
        ("classify", "operator class checks"),
        ("br", "approximate-minimizer subgradient procedures"),
        ("tail", "tail truncation experiment"),
    ):
        p = ap.subcommands[name] = sub.add_parser(name, help=help_text)
        if name != "tail":  # the tail operator lives on the l1 pair
            p.add_argument("--space", type=_json_arg, help="space "
                           'descriptor, e.g. \'{"dim":2,"norm":"l2"}\'')
        if name in ("gap", "fitz", "classify"):
            p.add_argument("--operator", type=_json_arg, required=True,
                           help="operator descriptor (JSON)")
        p.add_argument("--task", type=_json_arg,
                       help="extra task fields (JSON object)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--eta", type=finite_float, default=None)
        if name == "gap":
            p.add_argument("--probes", type=_json_arg, default=None,
                           help="probe list [[x, xstar], ...] (JSON)")
            p.add_argument("--count", type=int, default=20,
                           help="seeded probe count when none are given")
        if name == "fitz":
            p.add_argument("--points", type=_json_arg, required=True,
                           help="probe list [[ystar, ystarstar], ...]")
        if name == "classify":
            p.add_argument("--class", dest="cls", required=True,
                           choices=CLASSIFY_CLASSES)
        if name == "br":
            p.add_argument("--mode", required=True, choices=BR_MODES)
            p.add_argument("--fn", type=_json_arg, required=True,
                           help="function descriptor (JSON)")
        if name == "tail":
            p.add_argument("--n-list", type=_json_arg)
        _common_output(p)
    return ap


def _common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write the report here "
                                               "instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def _inline_scenario(args: argparse.Namespace) -> dict:
    task = {} if args.task is None else dict(args.task)
    task["seed"] = task.get("seed", args.seed)
    if args.budget is not None:
        task["budget"] = args.budget
    if args.eta is not None:
        task["eta"] = args.eta
    space = getattr(args, "space", None)  # tail takes none
    if space is None:
        space = {"dim": 1, "norm": "l2"}
    operators = {}
    if getattr(args, "operator", None) is not None:
        operators["op"] = args.operator
        task["operator"] = "op"

    if args.command == "gap":
        task["kind"] = "gap"
        if args.probes is not None:
            task["probes"] = args.probes
        else:
            task.setdefault("count", args.count)
    elif args.command == "fitz":
        task["kind"] = "fitz"
        task["points"] = args.points
    elif args.command == "classify":
        task["kind"] = "classify"
        task["class"] = args.cls
    elif args.command == "br":
        task["kind"] = "br"
        task["mode"] = args.mode
        task["fn"] = args.fn
    elif args.command == "tail":
        task["kind"] = "tail_experiment"
        task.setdefault("n_list", [1, 2, 4, 8, 16] if args.n_list is None
                        else args.n_list)
        space = {"dim": 1, "norm": "l1"}
    return {
        "schema": 1,
        "space": space,
        "operators": operators,
        "tasks": [task],
    }


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = report_json(report) if args.format == "json" else \
        report_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
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
