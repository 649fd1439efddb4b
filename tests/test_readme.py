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


def test_readme_lists_every_random_stream():
    """Each ``Rng(seed, "<path>")`` that the package builds outside
    ``numerics`` names its path as a literal or an f-string, and README lists
    that path with each ``{x}`` written ``<x>``."""
    paths, built = [], 0
    for module in sorted(Path(gradal.__file__).parent.glob("*.py")):
        if module.name != "numerics.py":
            source = module.read_text(encoding="utf-8")
            built += len(re.findall(r"\bRng\(", source))
            paths += [re.sub(r"\{(\w+)\}", r"<\1>", path)
                      for path in re.findall(r'\bRng\([^,()]+, f?"([^"]+)"\)', source)]
    assert paths and len(paths) == built, "an Rng is built without a literal path"
    missing = [path for path in paths if f"`{path}`" not in TEXT]
    assert not missing, f"README does not list these random streams: {missing}"
