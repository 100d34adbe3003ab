"""Every ```python block of README.md runs, and each printed line matches the
comment that follows its print call."""

import contextlib
import importlib
import importlib.util
import io
import pathlib
import pkgutil
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


# a backticked dotted name, such as `terms.term_layers` or `SymbolicGrid._f_classes`
DOTTED = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())))
FILE_SUFFIXES = {"md", "json", "jsonl", "py", "toml", "yml", "txt"}


def _commlab_heads():
    """Each name a README reference may start with: the package, its
    modules, and the names its modules define, such as ``SymbolicGrid``."""
    import commlab

    modules = {
        info.name: importlib.import_module(f"commlab.{info.name}")
        for info in pkgutil.iter_modules(commlab.__path__)
    }
    heads = {"commlab": commlab, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) == module.__name__:
                heads.setdefault(name, value)
    return heads


def test_every_dotted_commlab_name_in_the_readme_resolves():
    # A rename in src/ must not leave the README naming what is gone.
    heads = _commlab_heads()
    checked, unresolved = [], []
    for dotted in DOTTED:
        head, *rest = dotted.split(".")
        if head not in heads:
            # another library's name (e.g. numpy's), or a file name
            if importlib.util.find_spec(head) is None and rest[-1] not in FILE_SUFFIXES:
                unresolved.append(dotted)
            continue
        checked.append(dotted)
        obj = heads[head]
        for part in rest:
            if not hasattr(obj, part):
                unresolved.append(dotted)
                break
            obj = getattr(obj, part)
    assert unresolved == []
    assert len(checked) >= 17
