"""Source hygiene of the braidkit modules."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "braidkit"


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - read)
    assert not unused, f"{path.name} imports {unused} and never reads them"


def _loaded_submodules(code):
    """The braidkit submodules a fresh interpreter has loaded after code."""
    dump = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code + dump], capture_output=True, text=True, env=env, check=True
    )
    return {name for name in json.loads(result.stdout) if name.startswith("braidkit.")}


def test_each_import_loads_only_what_it_reads():
    # the package holds no re-exports, so importing it runs no submodule, and
    # a sweep that writes a report loads neither the check registry nor Garside
    assert _loaded_submodules("import braidkit") == set()
    loaded = _loaded_submodules("import braidkit.sweep, braidkit.report")
    assert {"braidkit.sweep", "braidkit.report"} <= loaded
    assert not loaded & {"braidkit.checks", "braidkit.garside"}


ROOT = SOURCE.parent.parent

# library API kept on purpose although nothing in the package, its scripts
# or the benchmark calls it
LIBRARY_API = {
    "BraidWord.mirror",
    "NormalForm.as_word",
    "apply_move",
    "exponent_sum",
    "free_reduce",
    "is_trivial_word",
    "permutation_length",
    "signature_function",
    "transvection",
}


def _definitions(tree):
    """(qualified name, node, whether a method) of each module-level
    function, class method and assigned name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, False


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.Lambda) + _COMPREHENSIONS


def _local_names(scope):
    """Names a function, lambda or comprehension binds in its own scope."""
    bound = set()
    if not isinstance(scope, _COMPREHENSIONS):
        bound.update(arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg))
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            pending.extend(ast.iter_child_nodes(node))
    return bound


def _reads(node, local=frozenset()):
    """(name, whether through an attribute) of each read, with repetition.

    A bare name that an enclosing function, lambda or comprehension binds is
    a local variable, not a read of the module-level name it spells.
    """
    if isinstance(node, _SCOPES):
        local = local | _local_names(node)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in local:
                yield child.id, False
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield child.attr, True
        yield from _reads(child, local)


def _count(reads, name, method):
    """Reads of name that count: for a method, attribute reads only."""
    return reads[name, True] + (0 if method else reads[name, False])


def _is_registered(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "register"
        for d in node.decorator_list
    )


def _wrapped_attributes():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "WRAPS":
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("perfbench/spans.py defines no WRAPS")


def test_every_function_and_method_is_read():
    # module-level functions, methods and assigned names; a name counts as
    # read outside its own definition, and a method only through an attribute
    modules = sorted(SOURCE.glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in modules + scripts}
    reads = Counter(read for tree in trees.values() for read in _reads(tree))
    reads.update((name, True) for name in _wrapped_attributes())
    unread = []
    for tree in map(trees.get, modules):
        for qualified, node, method in _definitions(tree):
            name = qualified.rpartition(".")[2]
            own = Counter(_reads(node))
            if _count(reads, name, method) == _count(own, name, method) and not (
                isinstance(node, ast.FunctionDef) and _is_registered(node)
            ):
                unread.append(qualified)
    unread = sorted(set(unread) - LIBRARY_API)
    assert not unread, f"defined and never read: {unread}"
