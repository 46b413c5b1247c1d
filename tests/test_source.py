"""Source hygiene of the braidkit modules."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "braidkit"


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_every_imported_name_is_read(path):
    # __init__ imports to re-export; every other module reads what it imports
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
    """(qualified name, node) of each module-level function and class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _reads(tree):
    """Names read as a variable or an attribute, with repetition."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


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
    # __init__ only re-exports; a name counts as read outside its own body
    modules = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"]
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in modules + scripts}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    reads.update(_wrapped_attributes())
    unread = []
    for tree in map(trees.get, modules):
        for qualified, node in _definitions(tree):
            name = node.name
            own = sum(1 for read in _reads(node) if read == name)
            if reads[name] == own and not _is_registered(node):
                unread.append(qualified)
    unread = sorted(set(unread) - LIBRARY_API)
    assert not unread, f"defined and never read: {unread}"
