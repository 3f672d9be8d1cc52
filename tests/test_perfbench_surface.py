"""The benchmark's tracer still fits the program it wraps.

``perfbench/tracer.py`` wraps transferlab functions by name (``WRAPPED``)
and its hooks (``HOOKS``) read their arguments by position and name, so a
renamed function or parameter would turn a counter dark without an error.
The tracer is read with ``ast`` here, never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
NO_DEFAULT = object()


def arg_reads(function: ast.FunctionDef) -> list[tuple]:
    """Each ``_arg(args, kwargs, index, name[, default])`` call in ``function``."""
    reads = []
    for call in ast.walk(function):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
            index, name, *default = map(ast.literal_eval, call.args[2:])
            reads.append((index, name, default[0] if default else NO_DEFAULT))
    return reads


def tracer_tables(source: str):
    """``WRAPPED``, ``HOOKS`` as qualified name -> hook name, and each function's reads."""
    tree = ast.parse(source)
    tables = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    hooks = tables["HOOKS"]
    return (
        ast.literal_eval(tables["WRAPPED"]),
        {ast.literal_eval(k): v.id for k, v in zip(hooks.keys, hooks.values)},
        {node.name: arg_reads(node) for node in tree.body if isinstance(node, ast.FunctionDef)},
    )


WRAPPED, HOOKS, READS = tracer_tables(TRACER.read_text(encoding="utf-8"))


def target(qualname: str):
    module, name = qualname.split(".")
    return getattr(importlib.import_module(f"transferlab.{module}"), name, None)


def test_the_reader_sees_the_hooks_reads():
    assert READS[HOOKS["learning.run_algorithm"]] == [
        (0, "data", NO_DEFAULT), (1, "system", NO_DEFAULT)
    ]
    assert READS[HOOKS["structural.homomorphic_structures"]] == [(2, "size_bound", 3)]


@pytest.mark.parametrize(
    "qualname", [f"{module}.{name}" for module, names in WRAPPED.items() for name in names]
)
def test_every_wrapped_name_is_a_callable_of_its_module(qualname):
    assert callable(target(qualname))


@pytest.mark.parametrize("qualname", sorted(HOOKS))
def test_every_argument_a_hook_reads_is_still_there(qualname):
    module, name = qualname.split(".")
    assert name in WRAPPED[module]
    parameters = list(inspect.signature(target(qualname)).parameters.values())
    for index, parameter, default in READS[HOOKS[qualname]]:
        assert parameters[index].name == parameter
        if default is not NO_DEFAULT:
            assert parameters[index].default == default
