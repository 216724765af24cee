"""Digest of the benchmark workloads' reports, with timings and paths
stripped, so that two source checkouts can be compared for identical
output.

    python3 tools/report_digest.py --root CHECKOUT [--out FILE]

Imports the program from ``CHECKOUT/src`` and the operations from
``CHECKOUT/perfbench/workloads.py``, runs rounds 0-3 of seeds 1-3 of
every workload through ``cli.main`` (or the operation's library call),
and prints one sha256 per workload over the outputs in run order. Each
output is the parsed report with every ``elapsed_s`` removed and the
scenario path replaced by ``{scenario}``, the exit code, and the error
text of a failed call; a library call's result is written out field by
field. Equal digests mean byte-identical reports. ``--out`` writes the
stripped outputs, one JSON line per operation, for a diff. Scenario
files go to a temporary directory that is deleted at the end. Run it
on a second checkout (``git archive`` of the parent commit, say) to
compare a change against its parent.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one BLAS thread, as run.py

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 4


def plain(obj):
    """``obj`` as JSON-ready lists, dicts and floats, field by field."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def run_op(op, lab, path: str | None) -> dict:
    """The stripped output of one operation."""
    if op.call is not None:
        try:
            return {"result": plain(op.call(lab))}
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
    argv = [path if a == "{scenario}" else a for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}
    text = out.getvalue()
    if path is not None:
        text = text.replace(json.dumps(path)[1:-1], "{scenario}")
    try:
        report = json.loads(text)
    except ValueError:
        report = text
    if isinstance(report, dict):
        for task in report.get("tasks", []):
            task.pop("elapsed_s", None)
    rec = {"rc": rc, "report": report}
    if rc != 0:
        rec["stderr"] = (err.getvalue() if path is None
                         else err.getvalue().replace(path, "{scenario}"))
    return rec


def digests(root: str, out_file=None) -> dict[str, str]:
    src = os.path.join(root, "src")
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import monotone_lab
    import monotone_lab.cli  # noqa: F401  (the package does not import it)
    import workloads

    if not os.path.abspath(monotone_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported monotone_lab from {monotone_lab.__file__}")
    # a warning prints once per source line, so its text depends on the
    # line numbers of the checkout
    warnings.simplefilter("ignore")
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            h = hashlib.sha256()
            for seed in SEEDS:
                rounds = workloads.make_rounds(name, seed, ROUNDS)
                for r, ops in enumerate(rounds):
                    for i, op in enumerate(ops):
                        path = None
                        if op.scenario is not None:
                            path = os.path.join(tmp, f"{name}-{seed}-{r}-{i}"
                                                ".json")
                            with open(path, "w", encoding="utf-8") as fh:
                                json.dump(op.scenario, fh)
                        rec = {"workload": name, "seed": seed, "round": r,
                               "label": op.label, **run_op(op, monotone_lab,
                                                           path)}
                        line = json.dumps(rec, sort_keys=True) + "\n"
                        h.update(line.encode())
                        if out_file is not None:
                            out_file.write(line)
            result[name] = h.hexdigest()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True,
                    help="source checkout holding src/ and perfbench/")
    ap.add_argument("--out", help="write the stripped outputs here")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext()) as fh:
        for name, digest in digests(root, fh).items():
            print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
