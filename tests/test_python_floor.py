"""Every source file parses with the grammar of the lowest Python version
that pyproject.toml's requires-python admits. This checks syntax only:
ast's feature_version is best effort, and a library call newer than the
floor still passes."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "scripts") for path in (ROOT / top).rglob("*.py"))


def _floor() -> tuple[int, int]:
    # read with a pattern, since tomllib is newer than the floor itself
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found.group(1)), int(found.group(2))


def test_sources_are_found():
    assert len(SOURCES) > 40


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), str(path), feature_version=_floor())
