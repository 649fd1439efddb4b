"""The benchmark imports gradal names and the traced benchmark wraps gradal
functions by name, and its own tests are not part of this suite, so check
here that every such name still resolves: a rename or deletion that would
break a benchmark run then fails here."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def tracer_targets():
    """The literal value of ``TARGETS`` in the tracer, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    return ast.literal_eval(value)


def test_there_are_targets():
    assert len(tracer_targets()) >= 30


@pytest.mark.parametrize("module, attr", tracer_targets(), ids=lambda v: v)
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(f"gradal.{module}")
    for name in attr.split("."):
        assert hasattr(obj, name), f"gradal.{module} has no {attr}"
        obj = getattr(obj, name)
    assert callable(obj)


def test_al_loop_binds_train():
    # the tracer's uninstall test reads this binding back
    assert hasattr(importlib.import_module("gradal.al_loop"), "train")


def benchmark_imports():
    """(module, name) for each ``from gradal... import name`` in the
    benchmark's files, read without importing them."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(node.module, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "gradal" for alias in node.names]
    return sorted(set(found))


def test_the_benchmark_imports_from_gradal():
    assert len({m for m, _ in benchmark_imports()}) >= 6


@pytest.mark.parametrize("module, name", benchmark_imports(), ids=lambda v: v)
def test_benchmark_import_resolves(module, name):
    obj = importlib.import_module(module)
    if not hasattr(obj, name):  # ``from gradal import cli`` names a submodule
        importlib.import_module(f"{module}.{name}")
