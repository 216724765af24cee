"""What importing the package loads."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_the_package_and_its_cli_import_no_scipy():
    # importing scipy.optimize takes longer than the rest of a CLI
    # call's start-up together
    code = ("import sys, monotone_lab, monotone_lab.cli; "
            "print(monotone_lab.__file__); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith(SRC + os.sep)
    assert out[1] == "[]"
