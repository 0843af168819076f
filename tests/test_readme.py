"""The Python examples in README.md run and print what their comments say."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
PRINT_LINE = re.compile(r"^print\(.*\)\s+# (.*)$")


def python_blocks() -> list:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(python_blocks()) >= 2


def test_python_blocks_print_their_comments():
    # The blocks run in order in one namespace, as a reader would paste them.
    namespace: dict = {}
    for block in python_blocks():
        expected = [m.group(1) for m in map(PRINT_LINE.match, block.splitlines()) if m]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, README, "exec"), namespace)
        assert out.getvalue().splitlines() == expected
