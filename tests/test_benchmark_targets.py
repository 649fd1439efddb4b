"""The benchmark imports gradal names and the traced benchmark wraps gradal
functions by name, and its own tests are not part of this suite, so check
here that every such name still resolves: a rename or deletion that would
break a benchmark run then fails here."""

import ast
import importlib
import inspect
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


def bound_argument_reads():
    """(span name, argument name) for each ``args["..."]`` that an extractor
    bound through the wrapped function's signature reads, from the tracer's
    ``EXTRACTORS`` and extractor functions, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "EXTRACTORS" for t in node.targets)]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = []
    for key, value in zip(table.keys, table.values):
        extractor, binds = value.elts
        if not ast.literal_eval(binds):
            continue
        fn = functions[extractor.id]
        args = fn.args.args[0].arg
        found += [(key.value, node.slice.value) for node in ast.walk(fn)
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                  and node.value.id == args]
    return sorted(set(found))


def test_the_bound_extractors_read_arguments():
    assert {span for span, _ in bound_argument_reads()} >= {
        "model.train", "model.mean_grad_embedding", "acquisition.select_batch",
        "cli.write_json", "cli.write_table"}


@pytest.mark.parametrize("span, arg", bound_argument_reads(), ids=lambda v: v)
def test_bound_argument_is_a_parameter(span, arg):
    # the tracer binds a call's arguments to the wrapped function's signature,
    # so a renamed parameter would break the traced run, not a gradal test
    module, attr = span.split(".", 1)
    fn = getattr(importlib.import_module(f"gradal.{module}"), attr)
    assert arg in inspect.signature(fn).parameters, f"gradal.{span} has no parameter {arg!r}"
