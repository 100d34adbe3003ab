"""Every ```python block of README.md runs, and each printed line matches the
comment that follows its print call."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_the_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_a_readme_python_block_runs_and_prints_what_it_says(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    expected = [m.group(1) for m in re.finditer(r"^print\(.*?\)(?: +# (.*))?$", block, re.M)]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        # a comment gives the printed text, optionally followed by " - " and a note
        assert comment is None or comment.split(" - ")[0] == line
