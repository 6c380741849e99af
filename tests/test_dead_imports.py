"""Every name a library module imports is read in that module.

No lint tool runs with the suite, so this walks each module under
src/relbayes with ast.  Package __init__ modules are skipped: everything
they import is their public surface, pinned in test_public_api.  A
deliberate re-export from another module goes in REEXPORTS.
"""

import ast
from pathlib import Path

import pytest

import relbayes

SRC = Path(relbayes.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")

# (module path relative to src/relbayes, name) pairs imported for importers
REEXPORTS = {("relevance.py", "DegenerateRelevanceError")}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(SRC).as_posix()
    read = _read_names(tree)
    unused = [f"line {line}: {name}" for name, line in _imported_names(tree).items()
              if name not in read and (rel, name) not in REEXPORTS]
    assert not unused, f"{rel} imports names it never reads: {unused}"


def test_reexports_are_imported_and_unread():
    """An allowlist entry goes once its module reads the name or drops it."""
    for rel, name in REEXPORTS:
        tree = ast.parse((SRC / rel).read_text(encoding="utf-8"))
        assert name in _imported_names(tree), (rel, name)
        assert name not in _read_names(tree), (rel, name)


def test_the_walk_sees_an_unread_import():
    tree = ast.parse("from typing import Optional\nimport numpy as np\nx: int = np.pi\n")
    assert set(_imported_names(tree)) - _read_names(tree) == {"Optional"}
