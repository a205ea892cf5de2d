"""Package modules reach each other through public names only, the
estimators HT and GST are siblings over shared layers, the CLI reaches
them through their modules, and a run imports what only some paths use
only on those paths."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from .conftest import SRC, cli_env

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


def estimator_calls_outside(path: Path, function: str) -> list[str]:
    """Each call ``ht.estimate_*(...)`` or ``gst.estimate_*(...)`` in the
    module at ``path`` that lies outside its top-level ``function``, as
    ``module.name``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("ht", "gst")
                    and node.func.attr.startswith("estimate_")):
                found.append(f"{node.func.value.id}.{node.func.attr}")
    return found


def test_estimator_calls_outside_reads_nested_calls(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def _estimate():\n    return ht.estimate_power_trace_mc()\n"
                    "def run():\n    x = [gst.estimate_power_trace(s).value for s in y]\n"
                    "    gst.check_enumeration_budget(4, 2, 9)\n"
                    "    return series.estimate_x()\n")
    assert estimator_calls_outside(path, "_estimate") == ["gst.estimate_power_trace"]


def test_cli_calls_the_estimators_only_in_its_job_dispatch():
    # Every CLI path, ``--golden`` too, reaches HT and GST through one job
    # dispatch, so no runner can call them with settings of its own.
    assert estimator_calls_outside(PACKAGE / "cli.py", "_estimate") == []


def test_ht_and_gst_import_nothing_from_each_other():
    assert "gst" not in imported_modules(PACKAGE / "ht.py")
    assert "ht" not in imported_modules(PACKAGE / "gst.py")


@pytest.mark.parametrize("name", ["series", "noise_bounds"])
def test_shared_layers_import_no_estimator_module(name):
    assert imported_modules(PACKAGE / f"{name}.py") & {"ht", "gst", "cli"} == set()


#: Modules that a run imports only on the paths that use them: numpy's random
#: module (5.5 MiB) where something is drawn, ``logging`` where a clamp count
#: is logged.
LAZY_MODULES = ["numpy.random", "logging"]

_RUN_COMMANDS = """
import contextlib, io, json, sys
from qtrace import cli
exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        exits.append(cli.main(argv))
print(json.dumps({"exits": exits, "loaded": [m for m in json.loads(sys.argv[2]) if m in sys.modules]}))
"""


def lazy_modules_after(*commands: list[str]) -> dict[str, list]:
    """Exit codes of the CLI ``commands``, run in turn in one fresh
    interpreter, and the LAZY_MODULES loaded after them."""
    run = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(commands),
                          json.dumps(LAZY_MODULES)],
                         capture_output=True, text=True, env=cli_env(), check=True)
    return json.loads(run.stdout)


def test_runs_that_draw_nothing_import_neither_numpy_random_nor_logging():
    got = lazy_modules_after(["entropy", "--estimator", "ht", "--order", "2-8"],
                             ["oracle", "--power", "2"])
    assert got == {"exits": [0, 0], "loaded": []}


def test_exact_mode_monte_carlo_imports_no_logging():
    got = lazy_modules_after(["ht", "--power", "2", "--strategy", "mc", "--mode", "exact",
                              "--trials", "1000"])
    assert got == {"exits": [0], "loaded": ["numpy.random"]}
