"""Capacity limits come from the caller alone.

A public function that takes limits reads them, the environment is read
in Limits.from_env only, and a passed canonical bound is checked before
enumeration or discovery labels a graph.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threshkit
import threshkit.canonical as canonical
import threshkit.enumeration as enumeration
from threshkit.enumeration import EnumerationConfig, all_colored_graphs, all_graphs
from threshkit.limits import CapacityError, Limits
from threshkit.obstructions import find_minimal_obstructions

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "threshkit").rglob("*.py"))


def _listed(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _public_functions(tree: ast.Module):
    """The functions a module lists in __all__, and the methods of the
    classes it lists, as (qualified name, node)."""
    listed = _listed(tree)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in listed:
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and node.name in listed:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_limits_parameter_is_read(path):
    tree = ast.parse(path.read_text(), str(path))
    for name, fn in _public_functions(tree):
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
        if "limits" not in params:
            continue
        reads = [n for n in ast.walk(fn)
                 if isinstance(n, ast.Name) and n.id == "limits" and isinstance(n.ctx, ast.Load)]
        assert reads, f"{path.name}: {name} takes limits and never reads it"


def _environment_reads(tree: ast.Module) -> list[str]:
    """The qualified names of the functions that touch os.environ or
    os.getenv; "<module>" for a read outside every function."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv")):
            found.append(".".join(scope) or "<module>")
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                found.append(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_limits_from_env_reads_the_environment():
    reads = {}
    for path in MODULES:
        for scope in _environment_reads(ast.parse(path.read_text(), str(path))):
            reads.setdefault(scope, []).append(path.name)
    assert reads == {"Limits.from_env.pick": ["limits.py"]}


def test_default_limits_ignore_the_environment():
    # a fresh process, so that the variable is set before the import
    env = dict(os.environ, THRESHKIT_COLORING_BUDGET="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(threshkit.__file__)))
    code = ("import sys; from threshkit.limits import DEFAULT_LIMITS, Limits; "
            "sys.exit(0 if DEFAULT_LIMITS == Limits() else 1)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def labelings(monkeypatch):
    """Empties the enumeration caches and records every canonical labeling."""
    calls = []
    min_order = canonical._min_order
    monkeypatch.setattr(canonical, "_min_order", lambda *args: calls.append(args[0]) or min_order(*args))
    enumeration._representatives.cache_clear()
    enumeration._colored_representatives.cache_clear()
    return calls


SMALL = Limits(canonical_max_n=5)


@pytest.mark.parametrize("call, n", [
    (lambda: all_graphs(EnumerationConfig(7), SMALL), 7),
    (lambda: all_colored_graphs(6, SMALL), 6),
    (lambda: find_minimal_obstructions(lambda g: True, 7, SMALL), 7),
], ids=["all_graphs", "all_colored_graphs", "find_minimal_obstructions"])
def test_passed_canonical_bound_precedes_labeling(labelings, call, n):
    with pytest.raises(CapacityError, match=f"^canonical form on {n} vertices exceeds bound 5$"):
        call()
    assert labelings == []


def test_enumeration_bound_is_checked_before_the_canonical_bound(labelings):
    with pytest.raises(CapacityError, match="^enumeration at n=7 exceeds bound 6$"):
        find_minimal_obstructions(lambda g: True, 9, Limits(enumeration_max_n=6, canonical_max_n=5))
    assert labelings == []

