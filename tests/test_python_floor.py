"""Every source file parses with the grammar of the lowest Python version
that pyproject.toml's requires-python admits, and names none of a denylist
of standard-library names added after 3.10. The grammar check is best
effort (ast's feature_version), and the denylist holds only the newer
names most likely to slip in, so a library call newer than the floor that
is not on it still passes."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


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


# standard-library names newer than Python 3.10, by module; None bans the module
NEWER_THAN_310 = {
    "tomllib": None,
    "typing": {"Self", "LiteralString", "Never", "assert_never"},
    "enum": {"StrEnum"},
    "builtins": {"ExceptionGroup"},
    "asyncio": {"TaskGroup", "timeout"},
    "datetime": {"UTC"},
    "itertools": {"batched"},
    "math": {"cbrt", "exp2"},
    "hashlib": {"file_digest"},
    "operator": {"call"},
    "contextlib": {"chdir"},
}


def newer_names(source: str) -> list[str]:
    """The denylisted names a module imports or reads, as module.name: from
    imports, attributes of an imported module (under any alias), and the
    builtins read by bare name."""
    found = []
    modules = {}  # local name -> denylisted module it is bound to
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEWER_THAN_310:
                    if NEWER_THAN_310[alias.name] is None:
                        found.append(alias.name)
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in NEWER_THAN_310:
            banned = NEWER_THAN_310[node.module]
            found.extend(f"{node.module}.{alias.name}" for alias in node.names
                         if banned is None or alias.name in banned)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None and node.attr in (NEWER_THAN_310[module] or ()):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER_THAN_310["builtins"]:
            found.append(f"builtins.{node.id}")
    return found


def test_denylist_finds_each_newer_name():
    source = """
import tomllib
import typing as t
import asyncio, datetime, itertools, math, hashlib, operator, contextlib, enum
from typing import Self, LiteralString, Never, assert_never
from enum import StrEnum
x = t.Self, asyncio.TaskGroup, asyncio.timeout, datetime.UTC, itertools.batched
y = math.cbrt, math.exp2, hashlib.file_digest, operator.call, contextlib.chdir, enum.StrEnum
raise ExceptionGroup("e", [])
"""
    assert sorted(newer_names(source)) == sorted([
        "tomllib", "typing.Self", "typing.LiteralString", "typing.Never", "typing.assert_never",
        "enum.StrEnum", "typing.Self", "asyncio.TaskGroup", "asyncio.timeout", "datetime.UTC",
        "itertools.batched", "math.cbrt", "math.exp2", "hashlib.file_digest", "operator.call",
        "contextlib.chdir", "enum.StrEnum", "builtins.ExceptionGroup",
    ])
    # older names of the same modules
    assert newer_names("import math, typing\nfrom typing import Optional\n"
                       "x = math.sqrt, typing.Any") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_names_nothing_newer_than_the_floor(path):
    assert _floor() == (3, 10), "the denylist lists names newer than 3.10"
    assert newer_names(path.read_text()) == []
