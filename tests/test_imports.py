"""Every module under ``src/transferlab`` uses each name it imports, every
private top-level name is used somewhere in the package, every public
name is used there or exported from it, only three functions catch the
base error, one function selects by ``argmin``, two call the per-pair
loss (the selection's totals and the one error path), one compares codes
with labels (the zero-one operand's builder), one looks data pairs up
in X and Y (the count tables), one reads hypothesis table cells into
codes, none calls the morphism enumeration, no function of the document
format decodes a table or reads a raw block value as a list but through
``_list``, every defaulted parameter, a frozen dataclass's
defaulted fields included, is passed by some call in the package or kept
on purpose, and no parameter that the package's calls all pass with one
literal is left but on purpose.

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


#: The functions that may call the morphism enumeration: none.  ``enumerate_morphisms``
#: builds a ``Morphism`` for every map pair it keeps, so a caller in the package would
#: enumerate witnesses it then throws away; the structure search tests its own
#: candidates and builds one each.
MORPHISM_ENUMERATORS: set[tuple[str, str]] = set()


def calls_morphisms(node: ast.AST) -> bool:
    """A call of ``enumerate_morphisms``, bare or as an attribute."""
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)
    ) == "enumerate_morphisms"


def test_the_scan_sees_a_morphisms_call():
    source = (
        "def f(s, t):\n    return enumerate_morphisms(s, t)\n"
        "def g(s, t):\n    def first():\n        return relations.enumerate_morphisms(s, t)[0]\n"
        "    return enumerate_morphisms\n"
        "ms = list(enumerate_morphisms(a, b))\n"
    )
    assert owners(source, calls_morphisms) == ["f", "first", "<module>"]


def test_only_enumerate_morphisms_calls_the_enumeration():
    found = {
        (path.name, owner)
        for path in MODULES
        for owner in owners(path.read_text(encoding="utf-8"), calls_morphisms)
    }
    assert found == MORPHISM_ENUMERATORS


#: Who reads a hypothesis table's cells as Python objects: the rows-in
#: constructor of ``HypothesisClass`` (``__init__`` in learning.py) reads each
#: cell once into the code matrix, and everything else reads the codes.  A
#: second reader would be a second encoding.
CELL_READERS = {("learning.py", "__init__")}


def reads_cells(node: ast.AST) -> bool:
    """A call of ``fromiter`` or ``from_iterable``: cells into an array, or rows into cells."""
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)
    ) in ("fromiter", "from_iterable")


def test_the_scan_sees_a_cell_reader():
    source = (
        "def f(rows):\n    return np.fromiter(rows, int)\n"
        "def g(rows):\n    def flat():\n        return itertools.chain.from_iterable(rows)\n"
        "    return fromiter\n"
        "cells = chain.from_iterable([[1]])\n"
    )
    assert owners(source, reads_cells) == ["f", "flat", "<module>"]


def test_only_the_rows_in_constructor_reads_table_cells():
    found = {
        (path.name, owner)
        for path in MODULES
        for owner in owners(path.read_text(encoding="utf-8"), reads_cells)
    }
    assert found == CELL_READERS


#: The functions of the document format (specio.py) that may decode a hypothesis
#: table: none.  Emission and the digest lay a table's text out from its codes, one
#: encode per distinct atom; a decoded table is a list per row and an object per cell.
TABLE_DECODERS: set[tuple[str, str]] = set()


def decodes_table(node: ast.AST) -> bool:
    """A read of ``.rows``, ``.output`` or ``.tolist``, or any use of ``rows_over``."""
    if isinstance(node, ast.Name):
        return node.id == "rows_over"
    decoders = ("rows", "output", "tolist", "rows_over")
    return isinstance(node, ast.Attribute) and node.attr in decoders


def test_the_scan_sees_a_table_decoder():
    source = (
        "def f(hc):\n    return hc.rows\n"
        "def g(system):\n    def cell(x):\n        return system.hypotheses.output(0, x)\n"
        "    return cell\n"
        "def h(hc, xs):\n    return hc.codes_over(xs).tolist(), rows_over, hc.rows_over(xs)\n"
        "rows = table.rows\n"
    )
    assert owners(source, decodes_table) == ["f", "cell", "h", "h", "h", "<module>"]


def test_no_function_of_the_document_format_decodes_a_table():
    source = (PACKAGE / "specio.py").read_text(encoding="utf-8")
    assert set(owners(source, decodes_table)) == TABLE_DECODERS


#: The functions of the document format (specio.py) that may read a block's raw
#: value as a list other than through ``_list``: none.  A conversion or a loop
#: reads a JSON string by its characters and a JSON object by its keys.
LIST_READERS: set[tuple[str, str]] = set()
ITERATING_CALLS = ("tuple", "list", "dict", "set", "map", "zip", "enumerate", "sorted")


def raw_value(node: ast.AST) -> bool:
    """``block[...]`` or ``block.get(...)``: a value as the JSON parser left it."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name)
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "get"
        and isinstance(node.func.value, ast.Name)
    )


def reads_raw_list(node: ast.AST) -> bool:
    """A call of one of :data:`ITERATING_CALLS`, a loop or a comprehension over a raw value."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ITERATING_CALLS:
        return any(map(raw_value, node.args))
    return isinstance(node, (ast.For, ast.comprehension)) and raw_value(node.iter)


def test_the_scan_sees_a_raw_list_read():
    source = (
        "def f(block):\n    return tuple(block['elements'])\n"
        "def g(block, table):\n    def row(t):\n        return list(table[t])\n"
        "    return [x for x in block.get('tuples')], dict(zip(xs, block['truth']))\n"
        "def h(block):\n    return tuple(map(float, _list(block['probs'], 'w'))), block['x']\n"
        "for p in raw['pairs']:\n    pass\n"
    )
    assert owners(source, reads_raw_list) == ["f", "row", "g", "g", "<module>"]


def test_the_document_format_reads_lists_only_through_the_list_reader():
    source = (PACKAGE / "specio.py").read_text(encoding="utf-8")
    assert set(owners(source, reads_raw_list)) == LIST_READERS


#: The per-pair loss is read by the selection's totals and by the one error
#: path that scores a selected hypothesis, learned or transferred.  A third
#: caller would be a second way to score a hypothesis.
LOSS_CALLERS = {("learning.py", "_loss_totals"), ("learning.py", "generalization_error")}


def calls_loss(node: ast.AST) -> bool:
    """A call of a ``.loss`` attribute, as :meth:`LossSpec.loss` is called."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "loss"


def test_the_scan_sees_a_loss_call():
    source = (
        "def f(spec):\n    return spec.loss(0, 1)\n"
        "def g(system):\n    score = lambda y: system.loss.loss(y, 0)\n    return loss(1, 1)\n"
        "total = SPEC.loss(1, 0)\n"
    )
    assert owners(source, calls_loss) == ["f", "g", "<module>"]


def test_only_the_selection_totals_and_the_error_path_call_the_loss():
    found = {
        (path.name, owner)
        for path in MODULES
        for owner in owners(path.read_text(encoding="utf-8"), calls_loss)
    }
    assert found == LOSS_CALLERS


#: Who looks a data pair up in X and Y: the count tables, which every fit, pack, knowledge
#: check, pooling and hold-out score reads.  A second pair check would drift from its
#: refusals, as the ones it replaced did on unhashable pairs.
PAIR_CHECKERS = {("learning.py", "count_tables")}


def checks_pairs(node: ast.AST) -> bool:
    """A loop, statement or comprehension, over an attribute named ``pairs`` whose body tests
    membership or subscripts a look-up (an index that is not a constant or a slice)."""
    if isinstance(node, ast.For):
        loops, body = [node], node.body
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        loops = node.generators
        body = [getattr(node, f) for f in ("elt", "key", "value") if hasattr(node, f)]
        body += [test for loop in loops for test in loop.ifs]
    else:
        return False
    if not any(getattr(n, "attr", None) == "pairs" for loop in loops for n in ast.walk(loop.iter)):
        return False
    inner = [n for part in body for n in ast.walk(part)]
    return any(
        isinstance(n, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn)) for op in n.ops)
        or isinstance(n, ast.Subscript) and not isinstance(n.slice, (ast.Constant, ast.Slice))
        for n in inner
    )


def test_the_scan_sees_a_pair_check():
    source = (
        "def f(d, xs):\n    for x, y in d.pairs:\n        if x not in xs:\n            raise E\n"
        "def g(ds, rows):\n    return [rows[x] for d in ds for x, y in d.pairs]\n"
        "def h(d):\n    for p in d.pairs:\n        print(p[0], p[1:])\n"
        "def k(d, xs):\n    for x in xs:\n        assert x in d.pairs\n"
        "def m(d, xs):\n    return {p: xs[p] for p in d}, sorted(d.pairs, key=xs.index)\n"
        "bad = [p for p in D.pairs if p[0] in S]\n"
    )
    assert owners(source, checks_pairs) == ["f", "g", "<module>"]


def test_only_the_count_tables_look_data_pairs_up():
    found = {
        (path.name, owner)
        for path in MODULES
        for owner in owners(path.read_text(encoding="utf-8"), checks_pairs)
    }
    assert found == PAIR_CHECKERS


#: Who compares a hypothesis table's codes with labels: the builder of the zero-one
#: operand, which each learning system calls once.  A comparison anywhere else would
#: rebuild the operand's indicator, likely once per fit.
LABEL_COMPARERS = {("learning.py", "_zero_one_operand")}


def mentions_codes(node: ast.AST) -> bool:
    """Whether ``node`` reads a name or an attribute called ``codes``."""
    return any(
        getattr(n, "id", getattr(n, "attr", None)) == "codes"
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def compares_codes_with_labels(node: ast.AST) -> bool:
    """An ``==`` or ``!=``, or a call of ``equal`` or ``not_equal``, with ``codes`` on one side
    only: codes against something else, where codes against codes is a distance."""
    if isinstance(node, ast.Compare):
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return False
        sides = [node.left, *node.comparators]
    elif isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)
    ) in ("equal", "not_equal"):
        sides = node.args
    else:
        return False
    return len(set(map(mentions_codes, sides))) == 2


def test_the_scan_sees_codes_compared_with_labels():
    source = (
        "def f(codes, labels):\n    return codes[:, :, None] == labels\n"
        "def g(system, y):\n    def hits():\n        return np.equal(system.codes.T, y)\n"
        "    return system.codes != system.codes[0], system.codes < y, hits\n"
        "def h(hc, xs):\n    return hc.columns == xs, np.not_equal(hc.codes, hc.codes[1])\n"
        "hit = y == table.codes[0]\n"
    )
    assert owners(source, compares_codes_with_labels) == ["f", "hits", "<module>"]


def test_only_the_operand_builder_compares_codes_with_labels():
    found = {
        (path.name, owner)
        for path in MODULES
        for owner in owners(path.read_text(encoding="utf-8"), compares_codes_with_labels)
    }
    assert found == LABEL_COMPARERS


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
    "relations.check_goal_seeking.system": "the decomposition check runs only when given one",
    "relations.enumerate_morphisms.require": "a flag of the public morphism enumeration",
    "relations.enumerate_morphisms.cap": "a flag of the public morphism enumeration",
    "relations.enumerate_morphisms.reflect": "a flag of the public morphism enumeration",
}


def keyword(call: ast.AST, name: str):
    """The value of keyword ``name`` in ``call``, or ``None``."""
    keywords = call.keywords if isinstance(call, ast.Call) else []
    return next((k.value for k in keywords if k.arg == name), None)


def init_fields(cls: ast.ClassDef) -> list[tuple[str, ast.AST | None]]:
    """``(field, default)`` for each parameter of the ``__init__`` a frozen dataclass generates
    (``None``: no default); empty for any other class, and for a dataclass that writes its own
    ``__init__``.
    """
    decorators = [d for d in cls.decorator_list if getattr(d, "func", None)]
    frozen = any(
        getattr(d.func, "id", None) == "dataclass"
        and getattr(keyword(d, "frozen"), "value", False) is True
        and getattr(keyword(d, "init"), "value", True) is not False
        for d in decorators
    )
    fields = []
    for node in cls.body if frozen else []:
        if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(node.annotation):
            continue
        if getattr(keyword(node.value, "init"), "value", True) is False:
            continue
        fields.append((node.target.id, node.value))
    return fields


def parameters(
    module: str, tree: ast.Module
) -> dict[str, tuple[ast.AST | None, ast.AST | None, list[tuple[str, int | None]]]]:
    """``module.function.parameter`` of each parameter, with the function's definition, the
    parameter's default (``None``: none) and each call that may pass it: the called name and
    the parameter's position in that call (``None``: by keyword only).

    A method is named by its class and called by its own name, its
    position counted after ``self``; a constructor is named and called
    by its class.  A field of a frozen dataclass is a constructor
    parameter, also passed by keyword to ``replace``; it has no
    definition of its own (``None``).
    """
    found: dict[str, tuple[ast.AST | None, ast.AST | None, list[tuple[str, int | None]]]] = {}

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for position, (name, default) in enumerate(init_fields(child)):
                    found[f"{module}.{child.name}.{name}"] = (
                        None, default, [(child.name, position), ("replace", None)]
                    )
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
            defaults = [None] * (len(args) - len(child.args.defaults)) + child.args.defaults
            for position, (arg, default) in enumerate(zip(args, defaults)):
                if position >= skip:
                    found[f"{owner}.{arg.arg}"] = (child, default, [(called, position - skip)])
            for arg, default in zip(child.args.kwonlyargs, child.args.kw_defaults):
                found[f"{owner}.{arg.arg}"] = (child, default, [(called, None)])
            visit(child, None)

    visit(tree, None)
    return found


def passed_values(sources: dict[str, str]) -> dict[str, tuple[ast.AST | None, list, list]]:
    """Each parameter of ``sources`` (module name → text), with its default and what each
    call there passes for it: the argument, the default when the call leaves it out, or
    ``None`` when a ``*args`` or ``**kwargs`` in the call may hold it.  The calls inside
    the function's own body, its recursions, come in a second list.

    Calls are matched by the called name alone, bare or as an attribute,
    so a same-named call elsewhere counts too.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def argument(call: ast.Call, parameter: str, position: int | None, default):
        if any(k.arg is None for k in call.keywords):
            return None
        if any(isinstance(a, ast.Starred) for a in call.args):
            return None
        value = keyword(call, parameter)
        if value is None and position is not None and len(call.args) > position:
            value = call.args[position]
        return default if value is None else value

    found = {}
    for module, tree in trees.items():
        for name, (function, default, callers) in parameters(module, tree).items():
            own = {id(node) for node in ast.walk(function)} if function else set()
            parameter = name.rsplit(".", 1)[1]
            outside, inside = [], []
            for called, position in callers:
                for c in calls.get(called, []):
                    value = argument(c, parameter, position, default)
                    (inside if id(c) in own else outside).append(value)
            found[name] = (default, outside, inside)
    return found


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of ``sources`` (module name → text) that no call there passes.

    A same-named call elsewhere counts as passing, as does a ``*args`` or
    ``**kwargs`` in a call: the scan may miss an unpassed parameter, but
    never flags a passed one.  A recursion passes nothing: it only hands
    on what its caller chose.
    """
    return [
        name
        for name, (default, outside, _) in passed_values(sources).items()
        if default is not None and all(value is default for value in outside)
    ]


def one_constant_parameters(sources: dict[str, str]) -> list[str]:
    """Parameters of ``sources`` (module name → text) that every call there passes with one
    and the same literal, an omitted argument counting as its default.

    A recursion that hands the parameter on by its own name is left out,
    since it passes what its caller chose; any other value a recursion
    passes counts.  Like :func:`unpassed_defaults` the scan may miss a
    parameter, since a same-named call elsewhere counts, but it never
    flags one that two calls pass differently.
    """
    def literal(node: ast.AST | None) -> str | None:
        try:
            ast.literal_eval(node)
        except (ValueError, TypeError):
            return None
        return ast.dump(node)

    found = []
    for name, (_, outside, inside) in passed_values(sources).items():
        parameter = name.rsplit(".", 1)[1]
        values = outside + [
            v for v in inside if not (isinstance(v, ast.Name) and v.id == parameter)
        ]
        texts = set(map(literal, values))
        if len(texts) == 1 and None not in texts:
            found.append(name)
    return found


def test_the_scan_sees_an_unpassed_default():
    sources = {
        "a": "def f(x, y=1, *, z=2, w=3): pass\ndef h(q=0): pass\n"
        "def r(n, k=0, j=1):\n    def go(): return r(n, k)\n    return r(n - 1, k, j)\n"
        "class C:\n    def __init__(self, u=0): pass\n    def m(self, v=0): pass\n"
        "    @staticmethod\n    def s(t=0): pass\n",
        "b": "f(0, 1, z=2)\ng(w=3)\nh(**kw)\nC()\nc.m(1)\nC.s(*ts)\nr(3, 1)\n",
    }
    assert unpassed_defaults(sources) == ["a.f.w", "a.r.j", "a.C.u"]


def test_the_scan_sees_an_unpassed_dataclass_field():
    sources = {
        "a": "@dataclass(frozen=True)\nclass D:\n    u: int\n    v: int = 0\n    w: int = 1\n"
        "    c: ClassVar[int] = 2\n    x: int = field(default=3)\n"
        "    z: int = field(default=4, init=False)\n    t: int = 5\n    def m(self): pass\n"
        "@dataclass(frozen=True, init=False)\nclass E:\n    e: int = 0\n"
        "@dataclass\nclass G:\n    g: int = 0\n"
        "@dataclass(frozen=True)\nclass F:\n    f: int = 0\n",
        "b": "D(0, 1)\nd = replace(d, x=3)\nreplace(g, 0, 1, 2, 3)\nF(**options)\n",
    }
    assert unpassed_defaults(sources) == ["a.D.w", "a.D.t"]


def test_every_defaulted_parameter_is_passed_or_kept_on_purpose():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    found = set(unpassed_defaults(sources))
    assert sorted(found - KEPT_DEFAULTS.keys()) == []  # make each a constant, or keep it above
    assert sorted(KEPT_DEFAULTS.keys() - found) == []  # a call passes it now: drop it above


def test_the_scan_sees_a_one_constant_parameter():
    sources = {
        "a": "def f(x, mode='a', n=1, *, k=0): pass\ndef g(x, y): pass\n"
        "def r(d, depth=0, mode='b'):\n    return r(d, depth + 1, mode)\n"
        "class C:\n    def m(self, v, w=2): pass\n"
        "def s(t=0, u=3): pass\ndef h(q=1): pass\n",
        "b": "f(0, 'a', 2)\nf(1, n=3)\ng(0, (1, 2))\ng(x, (1, 2))\nr(5)\nr(6, 0, 'b')\n"
        "c.m(1, w=2)\nc.m(1)\ns(t=1)\ns(**kw)\nh(1.0)\nh()\n",
    }
    expected = ["a.f.mode", "a.f.k", "a.g.y", "a.r.mode", "a.C.m.v", "a.C.m.w"]
    assert one_constant_parameters(sources) == expected


#: Parameters that every call in ``src/transferlab`` passes with one literal, kept on
#: purpose: each is a public setting that library callers and tests set directly.
ONE_CONSTANT = {
    "measures.estimate_measure.over": "a public estimator of the x, y, xy and y_given_x laws",
    "relations.cascade.coupling": "composes any two systems; the axiom audit couples on Θ",
    "behavioral.behavioral_transferability.mode": "a public choice of the distance or bound test",
    "structural.structural_transferability.size_bound": "a public search bound of 1 to 4",
}


def test_every_parameter_takes_two_values_or_is_kept_on_purpose():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    found = set(one_constant_parameters(sources)) - KEPT_DEFAULTS.keys()
    assert sorted(found - ONE_CONSTANT.keys()) == []  # make each a constant, or keep it above
    assert sorted(ONE_CONSTANT.keys() - found) == []  # a call passes another value: drop it above
