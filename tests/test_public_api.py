"""The documented surface: README's python quick start runs as written,
its threshkit commands parse, and every name a module exports in __all__
exists."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import threshkit
from threshkit.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [importlib.import_module(name) for name in ["threshkit"] + [
    f"threshkit.{info.name}" for info in pkgutil.iter_modules(threshkit.__path__)]]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(threshkit.__file__)))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("seed ")


def _readme_commands() -> list[list[str]]:
    """The arguments of each threshkit command in README: every line of a
    sh block that runs threshkit, and every inline command with an option,
    except synopses, which mark their optional parts with brackets."""
    text = README.read_text()
    lines = [line.split("threshkit ", 1)[1]
             for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
             for line in block.splitlines() if "threshkit " in line]
    spans = [span for span in re.findall(r"`(?:\w+=\S+ )*threshkit ([^`]*--[^`]*)`", text)
             if "[" not in span]
    return [shlex.split(command, comments=True) for command in lines + spans]


def test_readme_commands_parse():
    commands = _readme_commands()
    # the command-line block's eight, the n = 9 counts run and the two
    # commands of the suites paragraph
    assert len(commands) == 11
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: threshkit {shlex.join(argv)}")


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
