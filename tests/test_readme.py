"""Run every ```python block of README.md, so the documented public surface
cannot drift from the code unseen."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the block's first statement, its source)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    # blank lines in front keep the README's line numbers in a traceback
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "readme"})
