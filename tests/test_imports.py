"""Every name a module of the package imports is used by that module.

No linter runs on the package, so this check stands in for one: an import
left behind by a deletion fails here. The package ``__init__`` (whose
imports are its re-exports) and imports under ``if TYPE_CHECKING:`` (read
only by type checkers, from string annotations) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "optex"
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
