"""The traced benchmark wraps gradal functions by name, and its own tests
are not part of this suite, so check here that every name it wraps still
resolves: a deletion that would break the traced run then fails here."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
