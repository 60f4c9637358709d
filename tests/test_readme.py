"""The README's Python blocks run as written.

A public name that is removed or renamed then fails here instead of
going stale in the README.
"""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.mark.parametrize("k, name", [(0, "library tour"), (1, "branch and bound")])
def test_readme_python_block_runs(k, name):
    assert len(BLOCKS) == 2, "the README holds the library tour and the branch-and-bound example"
    exec(compile(BLOCKS[k], f"README.md, {name}", "exec"), {"__name__": "readme"})
