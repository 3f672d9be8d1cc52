"""Every module under ``src/transferlab`` uses each name it imports, every
private top-level name is used somewhere in the package, every public
name is used there or exported from it, only three functions catch the
base error, one function selects by ``argmin``, and every defaulted
parameter is passed by some call in the package or kept on purpose.

No linter ships with the project, so these stdlib-``ast`` scans stand in
for one.  ``__init__.py`` is left out of the import scan: its imports are
the re-exported public interface.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "transferlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nd(sys)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names ``tree`` reads; an imported name counts as read."""
    names: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def top_level_names(tree: ast.Module) -> list[str]:
    """Functions, classes and assigned names defined at the top of ``tree``."""
    defined: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return defined


def dead_private_names(sources: list[str]) -> list[str]:
    """Top-level ``_name`` definitions, dunders aside, that no module of ``sources`` reads."""
    trees = [ast.parse(source) for source in sources]
    used = set().union(*(names | attributes for names, attributes in map(references, trees)))
    return [
        name
        for tree in trees
        for name in top_level_names(tree)
        if name.startswith("_") and not name.endswith("__") and name not in used
    ]


def test_the_scan_sees_a_dead_private_name():
    sources = [
        "_A = 1\n_b: int = 2\ndef _c(): return _A\nclass _D: pass\n_E = 3\n__all__ = []\n",
        "from m import _b\n",
    ]
    assert dead_private_names(sources) == ["_c", "_D", "_E"]


def test_every_private_name_is_used():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert dead_private_names(sources) == []


def unreachable_public_names(sources: list[str], exported: set[str]) -> list[str]:
    """Public top-level names and methods that nothing in ``sources`` reads or ``exported`` lists.

    A top-level name is read as a bare name, a module attribute or an
    import; a method or property only as an attribute, since nothing else
    reaches it.  Dunder methods are called by the language and count as read.
    """
    trees = [ast.parse(source) for source in sources]
    reads = list(map(references, trees))
    names = set().union(*(n for n, _ in reads))
    attributes = set().union(*(a for _, a in reads))
    unreachable: list[str] = []
    for tree in trees:
        unreachable += [
            name
            for name in top_level_names(tree)
            if not name.startswith("_") and name not in names | attributes | exported
        ]
        unreachable += [
            f"{cls.name}.{method.name}"
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for method in cls.body
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not method.name.startswith("_")
            and method.name not in attributes
        ]
    return unreachable


def test_the_scan_sees_an_unreachable_public_name():
    sources = [
        "A = 1\nB = 2\ndef f(): return A\ndef g(): pass\n"
        "class C:\n    def m(self): pass\n    def n(self): pass\n"
        "    def __len__(self): return 0\n",
        "from a import f\ndef h(c, m): return c.n(m)\n",
    ]
    assert unreachable_public_names(sources, exported={"C", "h"}) == ["B", "g", "C.m"]


def test_every_public_name_is_reachable():
    """Every public name in ``src/transferlab`` is read there or exported from the package."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (exported,) = [
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    assert unreachable_public_names(sources, set(exported)) == []


#: The functions that may catch ``TransferLabError``: the one skip rule of every
#: universe scan, the document reader's mapping of failures to stages, and the
#: CLI's mapping of failures to exit codes.  Anywhere else a catch would be a
#: skip policy of its own.
BASE_ERROR_CATCHERS = {("learning.py", "scan"), ("specio.py", "_construct"), ("cli.py", "main")}


def owners(source: str, matches) -> list[str]:
    """The innermost function around each node of ``source`` that ``matches``."""
    found: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(owner)
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if function else owner)

    visit(ast.parse(source), "<module>")
    return found


def catches_base_error(node: ast.AST) -> bool:
    """An ``except`` naming ``TransferLabError``, alone or in a tuple."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(getattr(c, "id", getattr(c, "attr", None)) == "TransferLabError" for c in caught)


def test_the_scan_sees_a_caught_base_error():
    source = (
        "def f():\n    try: g()\n    except (KeyError, TransferLabError): pass\n"
        "def h():\n    def judge():\n        try: g()\n        except errors.TransferLabError: pass\n"
        "    try: g()\n    except ValueError: pass\n"
        "try: g()\nexcept TransferLabError as exc: pass\n"
    )
    assert owners(source, catches_base_error) == ["f", "judge", "<module>"]


def test_only_the_scan_the_reader_and_the_cli_catch_the_base_error():
    found = {
        (path.name, owner)
        for path in MODULES
        for owner in owners(path.read_text(encoding="utf-8"), catches_base_error)
    }
    assert found <= BASE_ERROR_CATCHERS


#: The one selection rule of learning and every transfer rule.  A second
#: function calling ``argmin`` would be a selection (and a tie-break) of its own.
ARGMIN_CALLERS = {("learning.py", "minimize")}


def calls_argmin(node: ast.AST) -> bool:
    """A call of ``argmin``, bare or as an attribute."""
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)
    ) == "argmin"


def test_the_scan_sees_an_argmin_call():
    source = (
        "def f(v):\n    return int(np.argmin(v))\n"
        "def g(v):\n    def pick():\n        return argmin(v)\n    return v.argmin\n"
        "best = numpy.argmin([1])\n"
    )
    assert owners(source, calls_argmin) == ["f", "pick", "<module>"]


def test_only_the_one_selection_calls_argmin():
    found = {
        (path.name, owner)
        for path in MODULES
        for owner in owners(path.read_text(encoding="utf-8"), calls_argmin)
    }
    assert found == ARGMIN_CALLERS


#: Defaulted parameters that no call in ``src/transferlab`` passes, kept on purpose.
#: Any other such parameter has one value in use and should be a constant.
KEPT_DEFAULTS = {
    "cli.main.argv": "the console script reads sys.argv; tests pass an argument list",
    "learning.verify_learning_axioms.functional_system": "tests pass corrupted relations",
    "learning.verify_learning_axioms.inductive_system": "tests pass corrupted relations",
    "transfer.verify_transfer_is_learning_system.functional_system":
        "tests pass corrupted relations",
    "transfer.verify_transfer_is_learning_system.inductive_system":
        "tests pass corrupted relations",
    "transfer.verify_transfer_is_learning_system.cap": "tests audit carriers above the default",
    "learning.HypothesisClass.table": "the class is built from rows or from a (θ, x) → y table",
    "relations.check_goal_seeking.system": "the decomposition check runs only when given one",
    "relations.enumerate_morphisms.require": "a flag of the public morphism enumeration",
    "relations.enumerate_morphisms.cap": "a flag of the public morphism enumeration",
    "relations.enumerate_morphisms.reflect": "a flag of the public morphism enumeration",
}


def defaulted_parameters(module: str, tree: ast.Module) -> dict[str, tuple[str, int | None]]:
    """``module.function.parameter`` of each defaulted parameter, with the called name and the
    parameter's position in a call (``None`` when keyword-only).

    A method is named by its class and called by its own name, its
    position counted after ``self``; a constructor is named and called
    by its class.
    """
    found: dict[str, tuple[str, int | None]] = {}

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls)
                continue
            called = cls if child.name == "__init__" else child.name
            owner = f"{module}.{cls}.{child.name}" if cls and called != cls else f"{module}.{called}"
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            skip = 1 if cls is not None and not static else 0
            args = child.args.posonlyargs + child.args.args
            first = len(args) - len(child.args.defaults)
            for position, arg in enumerate(args[first:], first):
                found[f"{owner}.{arg.arg}"] = (called, position - skip)
            for arg, default in zip(child.args.kwonlyargs, child.args.kw_defaults):
                if default is not None:
                    found[f"{owner}.{arg.arg}"] = (called, None)
            visit(child, None)

    visit(tree, None)
    return found


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of ``sources`` (module name → text) that no call there passes.

    Calls are matched by the called name alone, bare or as an attribute,
    so a same-named call elsewhere counts as passing: the scan may miss
    an unpassed parameter, but never flags a passed one.  A ``*args`` or
    ``**kwargs`` in a call counts as passing everything.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
        if any(k.arg in (parameter, None) for k in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return position is not None and len(call.args) > position

    return [
        name
        for module, tree in trees.items()
        for name, (called, position) in defaulted_parameters(module, tree).items()
        if not any(passes(c, name.rsplit(".", 1)[1], position) for c in calls.get(called, []))
    ]


def test_the_scan_sees_an_unpassed_default():
    sources = {
        "a": "def f(x, y=1, *, z=2, w=3): pass\ndef h(q=0): pass\n"
        "class C:\n    def __init__(self, u=0): pass\n    def m(self, v=0): pass\n"
        "    @staticmethod\n    def s(t=0): pass\n",
        "b": "f(0, 1, z=2)\ng(w=3)\nh(**kw)\nC()\nc.m(1)\nC.s(*ts)\n",
    }
    assert unpassed_defaults(sources) == ["a.f.w", "a.C.u"]


def test_every_defaulted_parameter_is_passed_or_kept_on_purpose():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    found = set(unpassed_defaults(sources))
    assert sorted(found - KEPT_DEFAULTS.keys()) == []  # make each a constant, or keep it above
    assert sorted(KEPT_DEFAULTS.keys() - found) == []  # a call passes it now: drop it above
