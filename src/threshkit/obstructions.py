"""Forbidden-induced-subgraph recognizers and minimal-obstruction discovery.

Each characterized family gets a recognizer that scans the family's
obstruction patterns with the induced-embedding search. Acceptance means
no pattern embeds; rejection carries the first pattern found together
with its embedding, which is the checkable negative certificate. Every
scan list is read from the family's shipped catalog by one builder,
_catalog_patterns: the entries and the color swap of each colored entry,
in (n, name) order, keeping the first pattern of each isomorphism class;
a later isomorphic pattern could never be the first hit.

find_minimal_obstructions is the discovery side: enumerate all graphs up
to a bound, evaluate an arbitrary membership predicate, and report the
members' minimal non-member boundary. find_minimal_colored_obstructions is
the same body over 2-colored graphs. The predicate may be a lookup into
verdicts already computed, as in the verification suites. Running
discovery against a recognizer that does not read the catalog and
comparing with the shipped catalog is the machine verification of the
characterizations at small n.

Discovery keys its verdicts by the canonical graph itself. A non-member is
minimal when the canonical graph of each one-vertex deletion is a member.
Distinct graphs on one level often share a labeled deletion (two colorings
that differ only at the deleted vertex, say), so a memo of the level's
deletions labels each distinct one once. The memo lasts one level, since a
deletion on the next level has one more vertex and can never match.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from .canonical import canonical_colored_graph, canonical_form, canonical_graph
from .catalogs import load_catalog
from .embed import Pattern, PatternList, find_first_embedding
from .graphs import ColoredGraph, Graph
from .enumeration import EnumerationConfig, all_colored_graphs, all_graphs, check_range
from .limits import DEFAULT_LIMITS, Limits
from .records import frozen

__all__ = [
    "FisResult",
    "recognize_threshold_fis",
    "recognize_special_fis",
    "recognize_good_fis",
    "recognize_partitioned_fis",
    "recognize_switch_threshold_fis",
    "recognize_switch_cograph_fis",
    "find_minimal_obstructions",
    "find_minimal_colored_obstructions",
]


@frozen
class FisResult:
    accepted: bool
    pattern: Optional[str] = None
    embedding: Optional[tuple[int, ...]] = None


def _scan(host: Graph, patterns: PatternList,
          host_coloring: Optional[tuple[int, ...]] = None) -> FisResult:
    hit = find_first_embedding(host, patterns, host_coloring)
    if hit is None:
        return FisResult(True)
    return FisResult(False, *hit)


@lru_cache(maxsize=None)
def _catalog_patterns(family: str) -> PatternList:
    """The scan list of a catalog: its entries and the color swap of each
    colored entry, under a :swapped name, sorted by (n, name), keeping the
    first pattern of each isomorphism class (color-preserving for colored
    patterns).

    Isomorphic patterns embed in the same hosts, so a later pattern of a
    class is never the first hit and dropping it leaves every scan result,
    name and embedding alike, unchanged. validate_catalog rejects
    isomorphic entries, so a plain catalog keeps every entry; the colored
    catalog is swap-closed, so it keeps one pattern per entry class, some
    under a :swapped name.
    """
    pats = []
    for e in load_catalog(family).entries:
        obj = e.obstruction
        pats.append((e.name, obj))
        if e.coloring is not None:
            pats.append((e.name + ":swapped", obj.swapped()))
    kept: dict[str, Pattern] = {}
    for name, obj in sorted(pats, key=lambda p: (p[1].n, p[0])):
        if isinstance(obj, ColoredGraph):
            pattern = (name, obj.graph, obj.colors)
        else:
            pattern = (name, obj, None)
        kept.setdefault(canonical_form(obj), pattern)
    return PatternList(kept.values())


def recognize_threshold_fis(g: Graph) -> FisResult:
    return _scan(g, _catalog_patterns("threshold"))


def recognize_special_fis(g: Graph) -> FisResult:
    return _scan(g, _catalog_patterns("special2t"))


def recognize_good_fis(g: Graph) -> FisResult:
    return _scan(g, _catalog_patterns("good"))


def recognize_switch_cograph_fis(g: Graph) -> FisResult:
    return _scan(g, _catalog_patterns("switch_cograph"))


def recognize_switch_threshold_fis(g: Graph) -> FisResult:
    return _scan(g, _catalog_patterns("switch_threshold"))


def recognize_partitioned_fis(cg: ColoredGraph) -> FisResult:
    return _scan(cg.graph, _catalog_patterns("partitioned2t"), cg.colors)


def _find_minimal(member: Callable, n_max: int, limits: Limits,
                  graphs_on: Callable, label: Callable) -> list:
    """The discovery body; graphs_on(n) lists the canonical graphs on n
    vertices, and label(g, limits) is the canonical graph of g."""
    check_range("obstruction search", n_max, limits)
    verdicts: dict = {}  # canonical graph -> membership
    out = []
    for n in range(1, n_max + 1):
        # labeled deletion -> membership of its class, for this level only
        deletions: dict = {}
        for g in graphs_on(n):
            ok = bool(member(g))
            verdicts[g] = ok
            if ok or n == 1:
                continue
            for v in range(n):
                d = g.delete_vertex(v)
                in_class = deletions.get(d)
                if in_class is None:
                    in_class = deletions[d] = verdicts[label(d, limits)]
                if not in_class:
                    break
            else:
                out.append(g)
    return out


def find_minimal_obstructions(
    member: Callable[[Graph], bool],
    n_max: int,
    limits: Limits = DEFAULT_LIMITS,
) -> list[Graph]:
    """All canonical non-members with <= n_max vertices whose every
    one-vertex deletion is a member. Sorted by canonical form per level."""
    return _find_minimal(member, n_max, limits, lambda n: all_graphs(EnumerationConfig(n), limits),
                         canonical_graph)


def find_minimal_colored_obstructions(
    member: Callable[[ColoredGraph], bool],
    n_max: int,
    limits: Limits = DEFAULT_LIMITS,
) -> list[ColoredGraph]:
    """find_minimal_obstructions over 2-colored graphs, color-preserving dedup."""
    return _find_minimal(member, n_max, limits, lambda n: all_colored_graphs(n, limits),
                         canonical_colored_graph)
