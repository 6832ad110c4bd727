"""Runtime code stays standard-library only: every absolute import in the
package names threshkit itself or a module of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "threshkit").rglob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_threshkit_or_stdlib(path):
    for name in _absolute_imports(path):
        top = name.split(".")[0]
        assert top == "threshkit" or top in sys.stdlib_module_names, f"{path.name} imports {name}"
