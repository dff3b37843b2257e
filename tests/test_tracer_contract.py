"""The names in daekit that the benchmark's span tracer,
perfbench/layertrace.py, patches or reads.  The tracer is read here, not
imported or run: a refactor that renames one of them fails in this suite,
not only in a traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from daekit import implicit, reduction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def tracer():
    return ast.parse(TRACER.read_text())


def _constant(tree, name):
    """The literal value of the module-level assignment to `name`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no {name}")


def test_traced_methods_resolve_on_their_classes(tracer):
    methods = _constant(tracer, "_METHODS")
    assert methods
    for modname, classes in methods.items():
        module = importlib.import_module(modname)
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            for name in names:
                assert callable(getattr(cls, name, None)), \
                    f"{modname}.{cls_name}.{name}"


def test_traced_private_functions_resolve(tracer):
    for modname, names in _constant(tracer, "_PRIVATE").items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"


def test_hooked_functions_resolve(tracer):
    hooks = next(node.value for node in ast.walk(tracer)
                 if isinstance(node, ast.Assign)
                 and any(isinstance(target, ast.Name)
                         and target.id == "_HOOKS"
                         for target in node.targets))
    for key in hooks.keys:
        layer, name = key.value.split(".")
        module = importlib.import_module(f"daekit.{layer}")
        assert callable(getattr(module, name, None)), key.value


def test_patched_attributes_exist():
    # the SVD behind the singularity test, and the counted field calls
    assert callable(implicit.cond2)
    for name in ("__call__", "jac"):
        assert callable(getattr(reduction.NonlinearField, name))


def test_newton_history_is_the_sixth_positional_parameter(tracer):
    params = list(inspect.signature(implicit.solve_newton).parameters)
    assert params[5] == "history"
    # the hook reads it at index 5 of the positional arguments, or by name
    hook = next(node for node in ast.walk(tracer)
                if isinstance(node, ast.FunctionDef)
                and node.name == "_newton_hook")
    indices = {node.slice.value for node in ast.walk(hook)
               if isinstance(node, ast.Subscript)
               and isinstance(node.value, ast.Name) and node.value.id == "args"
               and isinstance(node.slice, ast.Constant)}
    assert 5 in indices
    names = {node.args[0].value for node in ast.walk(hook)
             if isinstance(node, ast.Call) and node.args
             and isinstance(node.args[0], ast.Constant)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "get"}
    assert names == {"history"}
