"""Every name a library module imports is read in that module.

No lint tool runs with the suite, so this walks each module under
src/relbayes with ast.  Package __init__ modules are skipped: everything
they import is their public surface, pinned in test_public_api.
"""

import ast
from pathlib import Path

import pytest

import relbayes

SRC = Path(relbayes.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


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
    read = _read_names(tree)
    unused = [f"line {line}: {name}" for name, line in _imported_names(tree).items()
              if name not in read]
    assert not unused, f"{path.relative_to(SRC)} imports names it never reads: {unused}"


def test_the_walk_sees_an_unread_import():
    tree = ast.parse("from typing import Optional\nimport numpy as np\nx: int = np.pi\n")
    assert set(_imported_names(tree)) - _read_names(tree) == {"Optional"}
