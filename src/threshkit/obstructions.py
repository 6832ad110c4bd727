"""Forbidden-induced-subgraph recognizers and minimal-obstruction discovery.

Each characterized family gets a recognizer that scans the family's
obstruction patterns with the induced-embedding search. Acceptance means
no pattern embeds; rejection carries the first pattern found together
with its embedding, which is the checkable negative certificate. Every
scan list is read from the family's shipped catalog by one builder,
_catalog_patterns: the entries and the color swap of each colored entry,
in (n, name) order, keeping the first pattern of each isomorphism class;
a later isomorphic pattern could never be the first hit.

The scan lists of the two switching-closed catalogs carry a gate
(embed.PatternList), so their scans first decide by descent whether any
pattern embeds at all, within the one call of find_first_embedding.
switch_threshold is the union of the Seidel switching classes of 3K2, C5
and C4+2K1, and switch_cograph the class of C5. Their descendants are the
entries with an isolated vertex, less that vertex: P4, the bowtie and
C4+K1 (from cogem, fig6-02 and c4-2k1), and P4 alone (from cogem). For
each vertex v, the host is switched so that v is isolated, and the
vertices above v are searched for a descendant (the descendant of a
two-graph at a vertex; Seidel, "A survey of two-graphs", 1976). This is
exact:
- take v = min S for a pattern on the vertex set S;
- switching commutes with taking induced subgraphs, so the switch
  isolating v induces on S a switch of the pattern, with v isolated;
- that switch is a catalog entry, since the catalog is switching-closed,
  so the vertices of S above v carry its descendant. Conversely, a
  descendant above v together with the isolated v is a catalog entry, and
  switching back gives a switch of it, which is in the catalog too.
When every entry holds a descendant, as every entry of switch_cograph
holds P4, the descent at v = 0 alone decides: a pattern on S without
vertex 0 is switched to a catalog entry on S, whose descendant lies above
vertex 0. When no descendant is found the host is accepted without the
full scan. Otherwise the full scan runs unchanged, so the pattern name
and its lexicographically first embedding are the ones it always reported.

find_minimal_obstructions is the discovery side: enumerate all graphs up
to a bound, evaluate an arbitrary membership predicate, and report the
members' minimal non-member boundary. find_minimal_colored_obstructions is
the same body over 2-colored graphs. The predicate is called once on each
class, level by level in sorted order, so the verification suites pass
their own counted check and discovery is their one walk over the levels.
Running discovery against a recognizer that does not read the catalog
and comparing with the shipped catalog is the machine verification of
the characterizations at small n.

Discovery keeps one verdict byte per class, by its position in the sorted
level, and finds a canonical graph's position by its packed code. A
non-member is minimal when the canonical graph of each one-vertex deletion
is a member. It walks the level's codes beside its graphs and builds no
deletion as a graph. The deletion of the last vertex needs no labeling at
all: the minimal string of a canonical graph on n vertices starts with the
string of its first n - 1 vertices, which is therefore minimal too, so
they induce a canonical graph, whose code is the class's code less its
last column (a shift). A colored canonical graph lists its colors sorted,
so deleting its last vertex keeps them sorted and the same holds, less the
last color bit as well. Any other deletion's rows come from a bit squeeze
of the class's rows, and the labeling search turns them into a code.
Distinct graphs on one level often share a labeled deletion (two colorings
that differ only at the deleted vertex, say), so a memo of the level's
deletions, keyed by their rows and colors, labels each distinct one once.
The memo lasts one level, since a deletion on the next level has one more
vertex and can never match.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional

from . import canonical
from .canonical import canonical_form
from .catalogs import load_catalog
from .embed import Pattern, PatternList, _first_embedding, find_first_embedding
from .graphs import ColoredGraph, Graph, _unchecked_graph
from .enumeration import EnumerationConfig, _prefix_code, all_colored_graphs, all_graphs, check_range
from .limits import DEFAULT_LIMITS, Limits
from .records import frozen
from .switching import _switched_rows

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


# the catalogs that are unions of Seidel switching classes
_SWITCHING_CLOSED = ("switch_threshold", "switch_cograph")


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


class _Descent:
    """The gate of a switching-closed scan list: whether, for some v, the
    switch of host that isolates v induces a descendant on the vertices
    above v; for v = 0 only when every entry holds a descendant.

    The descendants are each entry that has an isolated vertex, less that
    vertex, in (n, name) order; entries are pairwise non-isomorphic, so
    their descendants are too. Whether every entry holds one is decided at
    the first host with a vertex that has a descendant's worth of vertices
    above it, so building the gate, or asking it about a smaller host,
    searches nothing."""

    def __init__(self, family: str):
        entries = load_catalog(family).entries
        self.entries = [e.graph for e in entries]
        pats = [(e.name, e.graph.delete_vertex(e.graph.rows.index(0)), None)
                for e in entries if 0 in e.graph.rows]
        self.descendants = PatternList(sorted(pats, key=lambda p: (p[1].n, p[0])))
        self._held: Optional[bool] = None

    def held(self) -> bool:
        """Whether every entry holds a descendant."""
        if self._held is None:
            self._held = all(_first_embedding(g, self.descendants, None) is not None
                             for g in self.entries)
        return self._held

    def __call__(self, host: Graph) -> bool:
        n, rows, full = host.n, host.rows, host.full_mask
        # the vertices above v must hold the smallest descendant
        stop = n - self.descendants[0][1].n
        if stop <= 0:
            return False
        for v in range(1 if self.held() else stop):
            shift = v + 1
            suffix = _switched_rows([row >> shift for row in rows[shift:]], full >> shift,
                                    rows[v] >> shift)
            if _first_embedding(_unchecked_graph(n - shift, suffix), self.descendants,
                                None) is not None:
                return True
        return False


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
    under a :swapped name. A switching-closed catalog's list carries the
    descent as its gate.
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
    gate = _Descent(family) if family in _SWITCHING_CLOSED else None
    return PatternList(kept.values(), gate)


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


def _deleted_rows(rows: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The rows of a graph less vertex v: the bits above v move down one."""
    low = (1 << v) - 1
    return tuple(r & low | r >> 1 & ~low for r in rows[:v] + rows[v + 1:])


def _find_minimal(member: Callable, n_max: int, limits: Limits, levels: Callable) -> list:
    """The discovery body; levels(n) is the sorted level of canonical graphs,
    plain or 2-colored, on n vertices."""
    check_range("obstruction search", n_max, limits)
    min_order = canonical._min_order
    out = []
    below = verdicts_below = None

    def member_below(code: int) -> int:
        """The verdict on the class of the level below that code packs."""
        return verdicts_below[below.position(code)]

    for n in range(1, n_max + 1):
        level = levels(n)
        colored = level.colored
        verdicts = bytearray()  # by position in the level
        # labeled deletion -> membership of its class, for this level only
        deletions: dict[tuple, int] = {}
        for g, code in zip(level, level.codes):
            ok = bool(member(g))
            verdicts.append(ok)
            if ok or n == 1:
                continue
            # the last deletion is canonical as it stands
            if not member_below(_prefix_code(code, n, colored)):
                continue
            rows, colors = (g.graph.rows, g.colors) if colored else (g.rows, None)
            for v in range(n - 1):
                d = _deleted_rows(rows, v)
                key = (d, colors[:v] + colors[v + 1:]) if colored else (d, None)
                in_class = deletions.get(key)
                if in_class is None:
                    in_class = deletions[key] = member_below(min_order(n - 1, *key)[1])
                if not in_class:
                    break
            else:
                out.append(g)
        below, verdicts_below = level, verdicts
    return out


def find_minimal_obstructions(
    member: Callable[[Graph], bool],
    n_max: int,
    limits: Limits = DEFAULT_LIMITS,
) -> list[Graph]:
    """All canonical non-members with <= n_max vertices whose every
    one-vertex deletion is a member. Sorted by canonical form per level."""
    return _find_minimal(member, n_max, limits, lambda n: all_graphs(EnumerationConfig(n), limits))


def find_minimal_colored_obstructions(
    member: Callable[[ColoredGraph], bool],
    n_max: int,
    limits: Limits = DEFAULT_LIMITS,
) -> list[ColoredGraph]:
    """find_minimal_obstructions over 2-colored graphs, color-preserving dedup."""
    return _find_minimal(member, n_max, limits, lambda n: all_colored_graphs(n, limits))
