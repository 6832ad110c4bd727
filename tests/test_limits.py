"""Capacity limits come from the caller alone.

A public function that takes limits reads them, the environment is read
in Limits.from_env only, and a passed canonical bound is checked before
enumeration or discovery labels a graph. Every guarded search refuses
through Limits.require before its work, naming the field, its bound and
the variable that raises it, and README lists exactly those variables.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import threshkit
import threshkit.canonical as canonical
import threshkit.enumeration as enumeration
import threshkit.kthreshold as kthreshold
import threshkit.obstructions as obstructions
import threshkit.switching as switching
from threshkit.canonical import canonical_colored_graph, canonical_graph
from threshkit.enumeration import EnumerationConfig, all_colored_graphs, all_graphs
from threshkit.graphs import ColoredGraph
from threshkit.kthreshold import is_k_threshold
from threshkit.limits import DEFAULT_LIMITS, ENV_VARS, CapacityError, Limits
from threshkit.named import cycle_graph, path_graph
from threshkit.obstructions import find_minimal_obstructions
from threshkit.switching import switching_class
from threshkit.verify import run_suite

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "threshkit").rglob("*.py"))


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
    with pytest.raises(CapacityError, match=rf"^canonical form on {n} vertices exceeds canonical_max_n 5"
                                            r" \(set THRESHKIT_CANONICAL_MAX_N\)$"):
        call()
    assert labelings == []


def test_enumeration_bound_is_checked_before_the_canonical_bound(labelings):
    with pytest.raises(CapacityError, match=r"^enumeration at n=7 exceeds enumeration_max_n 6"
                                            r" \(set THRESHKIT_ENUMERATION_MAX_N\)$"):
        find_minimal_obstructions(lambda g: True, 9, Limits(enumeration_max_n=6, canonical_max_n=5))
    assert labelings == []



# site -> (the guarded call under limits, the limits that refuse it, the
# work it guards besides canonical labeling, as (module, name))
GUARDED = {
    "canonical_graph": (lambda limits: canonical_graph(path_graph(6), limits),
                        Limits(canonical_max_n=5), []),
    "canonical_colored_graph": (
        lambda limits: canonical_colored_graph(ColoredGraph(path_graph(6), (0, 1) * 3), limits),
        Limits(canonical_max_n=5), []),
    "all_graphs": (lambda limits: all_graphs(EnumerationConfig(5), limits),
                   Limits(enumeration_max_n=4), [(enumeration, "_representatives")]),
    "all_colored_graphs": (lambda limits: all_colored_graphs(5, limits),
                           Limits(canonical_max_n=4), [(enumeration, "_colored_representatives")]),
    "check_range": (lambda limits: find_minimal_obstructions(lambda g: True, 5, limits),
                    Limits(enumeration_max_n=4), [(obstructions, "all_graphs")]),
    # counts labels threshold graphs on one vertex more than it enumerates
    "suite_bound": (lambda limits: run_suite("counts", 2, limits), Limits(canonical_max_n=2), []),
    # catalogs walks the 2^5 switch sets of its largest seed, 3K2
    "suite_bound_catalogs": (lambda limits: run_suite("catalogs", None, limits),
                             Limits(coloring_budget=2 ** 5 - 1), [(switching, "_switched_rows")]),
    # special extends up to all 2^4 colorings of each class, switching up
    # to all 2^3 switch sets without vertex 0
    "suite_bound_special": (lambda limits: run_suite("special", 4, limits),
                            Limits(coloring_budget=2 ** 4 - 1), [(kthreshold, "elimination_picks")]),
    "suite_bound_switching": (lambda limits: run_suite("switching", 4, limits),
                              Limits(coloring_budget=2 ** 3 - 1), [(switching, "_switched_rows")]),
    # 14 colorings of 4 vertices in at most 3 colors are numbered by first use
    "is_k_threshold": (lambda limits: is_k_threshold(path_graph(4), 3, limits),
                       Limits(coloring_budget=13), [(kthreshold, "elimination_picks")]),
    "switching_class": (lambda limits: switching_class(cycle_graph(5), limits),
                        Limits(coloring_budget=2 ** 4 - 1), [(switching, "_switched_rows")]),
}


@pytest.mark.parametrize("site", GUARDED)
def test_every_guard_names_its_limit_and_refuses_before_work(monkeypatch, site):
    call, tight, steps = GUARDED[site]
    calls = []
    for module, name in [(canonical, "_min_order")] + steps:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    (field,) = [f for f in ENV_VARS if getattr(tight, f) != getattr(DEFAULT_LIMITS, f)]
    message = rf" {field} {getattr(tight, field)} \(set {ENV_VARS[field]}\)$"
    with pytest.raises(CapacityError, match=message):
        call(tight)
    assert calls == []
    # the watched steps are the guarded call's own work
    call(DEFAULT_LIMITS)
    assert calls


def test_readme_capacity_table_lists_exactly_the_limit_variables():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Capacity limits\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(THRESHKIT_\w+)` \|", section, re.MULTILINE)
    assert sorted(listed) == sorted(ENV_VARS.values())
