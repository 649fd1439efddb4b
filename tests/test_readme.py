"""Run every ```python block of README.md, and check that README names every
name the package root exports, so the documented public surface cannot
drift from the code unseen."""

import re
import types
from pathlib import Path

import pytest

import gradal

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the block's first statement, its source)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)]


def test_readme_has_python_blocks():
    assert BLOCKS


# ids count blocks, so an edit above a block does not rename its test
@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(line, source):
    # blank lines in front keep the README's line numbers in a traceback
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "readme"})


def test_readme_names_every_root_export():
    exported = [name for name, value in vars(gradal).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert len(exported) > 10
    missing = [name for name in exported if not re.search(rf"\b{re.escape(name)}\b", TEXT)]
    assert not missing, f"README never names these root exports: {missing}"
