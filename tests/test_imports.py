"""Package modules reach each other through public names only, the
estimators HT and GST are siblings over shared layers, and the CLI reaches
them through their modules."""

import ast
from pathlib import Path

import pytest

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


def imported_modules(path: Path) -> set[str]:
    """The qtrace modules that the module at ``path`` imports, or imports
    names from, at any depth of its code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("qtrace.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "qtrace" and not module.startswith("qtrace."):
                    continue
                module = module.removeprefix("qtrace").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def names_imported_from(path: Path, modules: set[str]) -> list[str]:
    """Each name that the module at ``path`` imports from one of the qtrace
    ``modules``, as ``module.name``; ``from . import ht`` imports a module,
    not a name from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if not module.startswith("qtrace."):
                continue
            module = module.removeprefix("qtrace.")
        if module.split(".")[0] in modules:
            found += [f"{module}.{alias.name}" for alias in node.names]
    return found


def test_imported_modules_reads_every_import_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import numpy\nimport qtrace.cli\nfrom . import ht, series\n"
                    "from .ensemble import EnsembleSpec\nfrom qtrace import rng\n"
                    "from qtrace.gst import EXACT\nfrom numpy import linalg\n"
                    "from .ht import TRIAL_CHUNK\n"
                    "def f():\n    from .errors import ResourceLimitError\n")
    assert imported_modules(path) == {"cli", "ht", "series", "ensemble", "rng", "gst", "errors"}
    assert names_imported_from(path, {"ht", "gst"}) == ["gst.EXACT", "ht.TRIAL_CHUNK"]


def test_cli_imports_the_estimators_as_modules_only():
    # The benchmark tracer and the CLI's spy tests patch estimator functions
    # on their modules; a name bound in cli by ``from .ht import ...`` would
    # silently bypass both.
    assert names_imported_from(PACKAGE / "cli.py", {"ht", "gst"}) == []


def test_ht_and_gst_import_nothing_from_each_other():
    assert "gst" not in imported_modules(PACKAGE / "ht.py")
    assert "ht" not in imported_modules(PACKAGE / "gst.py")


@pytest.mark.parametrize("name", ["series", "noise_bounds"])
def test_shared_layers_import_no_estimator_module(name):
    assert imported_modules(PACKAGE / f"{name}.py") & {"ht", "gst", "cli"} == set()
