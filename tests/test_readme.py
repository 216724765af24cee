"""The README's library example prints what its comment says."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def test_the_library_example_prints_its_comment():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    expected = [line[2:] for line in block.splitlines()
                if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    assert out.getvalue().splitlines() == expected
