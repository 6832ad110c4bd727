"""The documented surface: README's python quick start runs as written, and
every name a module exports in __all__ exists."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import threshkit

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


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
