"""Every name a module of the package imports is used by that module, every
private module-level name is used somewhere in the package, and every public
top-level function, class and method is read somewhere in the package, the
benchmark or the tests.

No linter runs on the package, so these checks stand in for one: an import,
a private helper or a public name left behind by a deletion fails here. The package
``__init__`` (whose imports are its re-exports) and imports under ``if
TYPE_CHECKING:`` (read only by type checkers, from string annotations) are
exempt from the first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "optex"
READERS = ("src", "bench", "tests")  # where a public name may be read
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _is_type_checking(node: ast.stmt) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names a module binds by import, with the line of each import."""
    names = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if _is_type_checking(node):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        else:
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, ast.stmt))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private functions, classes and constants a module defines at its top level."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: loaded names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in PACKAGE.glob("*.py")}
    used = set().union(*(read_names(tree) for tree in trees.values()))
    unused = {f"{name}:{line} {attr}" for name, tree in trees.items()
              for attr, line in private_definitions(tree).items() if attr not in used}
    assert not unused, f"private names nothing in the package reads: {sorted(unused)}"


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """The public functions and classes a module defines at its top level and the
    public methods of its classes (as Class.method), dunders exempt."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            names.update({f"{node.name}.{sub.name}": sub.lineno for sub in node.body
                          if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))})
    return {name: line for name, line in names.items()
            if not name.rpartition(".")[2].startswith("_")}


def unread_public_names(modules: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The public definitions of `modules` whose name no module of `readers` reads."""
    used = set().union(*(read_names(tree) for tree in readers))
    return sorted(f"{name}:{line} {attr}" for name, tree in modules.items()
                  for attr, line in public_definitions(tree).items()
                  if attr.rpartition(".")[2] not in used)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def parse_all() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The package's modules by file name, and every module under READERS."""
    return ({path.name: parse(path) for path in PACKAGE.glob("*.py")},
            [parse(path) for folder in READERS for path in sorted((ROOT / folder).rglob("*.py"))])


def test_every_public_name_is_read():
    modules, readers = parse_all()
    assert sum(map(len, map(public_definitions, modules.values()))) > 100
    unread = unread_public_names(modules, readers)
    assert not unread, f"public names nothing in {READERS} reads: {unread}"


def test_an_unread_public_function_fails_the_check():
    modules, readers = parse_all()
    orphan = ast.parse("def orphan_helper(x):\n    return x\n").body[0]
    modules["criteria.py"].body.append(orphan)
    assert unread_public_names(modules, readers) == [f"criteria.py:{orphan.lineno} orphan_helper"]
