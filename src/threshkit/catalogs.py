"""Obstruction catalogs shipped as data files.

A catalog lists the minimal obstructions of a class: graphs, colored
exactly when the color column is not "-", that are not in the class but
whose every one-vertex deletion is. The class registry (classes.ROWS)
names each catalog; the catalog itself is the TSV file of that name
shipped with the package, one entry per line:

    <name> TAB <graph6> TAB <colorstring or -> TAB <source>

validate_catalog replays the defining properties against the family's
membership predicate and is the safety net against transcription errors
in the data files.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import Callable, Optional, Union

from .graphs import Graph, ColoredGraph
from .graph6 import decode_graph6, parse_color_string
from .canonical import canonical_form
from .limits import DEFAULT_LIMITS, Limits
from .records import frozen

@frozen
class CatalogEntry:
    name: str
    graph: Graph
    coloring: Optional[tuple[int, ...]]
    source: str

    def __post_init__(self):
        if self.coloring is not None and len(self.coloring) != self.graph.n:
            raise ValueError(f"{self.name}: coloring length != n")

    @property
    def obstruction(self) -> Graph | ColoredGraph:
        """The ColoredGraph when the entry has colors, the Graph otherwise."""
        return self.graph if self.coloring is None else ColoredGraph(self.graph, self.coloring)


@frozen
class Catalog:
    family: str
    entries: tuple[CatalogEntry, ...]

    def lookup(self, name: str) -> CatalogEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _parse_entry(line: str) -> CatalogEntry:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 4:
        raise ValueError(f"malformed catalog line: {line!r}")
    name, g6, colors, source = parts
    g = decode_graph6(g6)
    coloring = None if colors == "-" else parse_color_string(colors)
    return CatalogEntry(name, g, coloring, source)


@lru_cache(maxsize=None)
def load_catalog(family: str) -> Catalog:
    """The catalog shipped as data/<family>.tsv."""
    path = resources.files("threshkit.data").joinpath(f"{family}.tsv")
    if not path.is_file():
        raise ValueError(f"unknown family {family!r}")
    text = path.read_text()
    entries = tuple(_parse_entry(line) for line in text.splitlines() if line.strip())
    return Catalog(family, entries)


Member = Callable[[Union[Graph, ColoredGraph]], bool]


@frozen
class CatalogProblem:
    entry: str
    condition: str
    detail: str


def validate_catalog(cat: Catalog, member: Member,
                     limits: Limits = DEFAULT_LIMITS) -> list[CatalogProblem]:
    """Check every entry's obstruction against the family's membership predicate.

    Conditions per entry: (a) the entry itself is rejected, (b) every
    one-vertex deletion is accepted, (c) no two entries are isomorphic
    (color-preservingly when colored). Returns the list of violations;
    an empty list means the catalog is sound. Canonical forms are
    computed under limits.
    """
    problems = []
    seen: dict[str, str] = {}
    for e in cat.entries:
        obj = e.obstruction
        form = canonical_form(obj, limits)
        if form in seen:
            problems.append(CatalogProblem(e.name, "distinct", f"isomorphic to {seen[form]}"))
        else:
            seen[form] = e.name
        if member(obj):
            problems.append(CatalogProblem(e.name, "rejected", "entry accepted by recognizer"))
            continue
        for v in range(e.graph.n):
            sub = obj.delete_vertex(v)
            if not member(sub):
                problems.append(
                    CatalogProblem(e.name, "minimal", f"still rejected after deleting vertex {v}"))
                break
    return problems
