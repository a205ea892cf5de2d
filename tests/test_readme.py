"""The README's examples run as written: every ``qtrace ...`` line of its
command block, with the config schema example as ``my_sweep.json``, and the
"Library use" snippet."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qtrace import cli

from .conftest import cli_env

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def readme_commands():
    """Argument lists of the ``qtrace`` lines, trailing comments dropped."""
    block = next(b for b in fenced_blocks("sh") if "qtrace oracle" in b)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("qtrace ")]


def test_readme_lists_the_commands():
    assert {argv[0] for argv in readme_commands()} == {
        "oracle", "ht", "gst", "entropy", "sweep", "bounds", "--golden"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_command_example_exits_0(tmp_path, argv):
    (schema,) = fenced_blocks("json")
    (tmp_path / "my_sweep.json").write_text(schema, encoding="utf-8")
    r = subprocess.run([sys.executable, "-m", "qtrace", *argv], capture_output=True,
                       text=True, env=cli_env(), cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout or (tmp_path / "out.csv").exists()


def test_library_snippet_runs(capsys):
    (snippet,) = fenced_blocks("python")
    exec(compile(snippet, "README.md", "exec"), {})
    exact, tomo, mc = capsys.readouterr().out.split(maxsplit=2)
    assert float(tomo) == pytest.approx(float(exact), abs=1e-8)


def test_params_table_lists_each_key_with_its_flag():
    # One row per ``cli._PARAMS`` key, in its first cell, with the flag that
    # sets it first in the second; ``gst_shots`` has no flag of its own and
    # is set by ``--shots`` where GST runs.
    start = README.index("| key | flag | subcommands |")
    lines = README[start:].split("\n\n", 1)[0].splitlines()[2:]
    cells = [re.split(r"(?<!\\)\|", line)[1:3] for line in lines]
    table = {re.search(r"`([^`]*)`", key)[1]: re.search(r"`([^`]*)`", flag)[1]
             for key, flag in cells}
    assert len(table) == len(lines)
    assert table == {key: row.flag or cli._PARAMS["shots"].flag
                     for key, row in cli._PARAMS.items()}
