"""Package modules reach each other through public names only."""

import ast
from pathlib import Path

from .conftest import SRC

PACKAGE = Path(SRC) / "qtrace"


def private_imports(path: Path) -> list[str]:
    """Each underscore-prefixed name that the module at ``path`` imports from
    another qtrace module, as ``module.name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "qtrace":
            continue
        found += [f"{node.module or ''}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    found = {path.name: private_imports(path) for path in paths}
    assert {name: names for name, names in found.items() if names} == {}
