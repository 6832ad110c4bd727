"""Small undirected graphs as tuples of adjacency bitmasks.

Vertices are 0..n-1 with n <= 64; rows[v] is the neighbor set of v as an int.
All graph values are immutable and hashable.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .limits import CapacityError
from .records import frozen

MAX_VERTICES = 64

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "ColoredGraph",
    "bits",
    "disjoint_union",
    "join",
    "is_distance_hereditary",
]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@frozen
class Graph:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} mentions vertices >= {self.n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in bits(row):
                if not self.rows[u] >> v & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from unordered vertex pairs; duplicates collapse."""
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {u}-{v} outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.rows[v] & ((1 << v) - 1)):
                yield (u, v)

    def induced(self, mask: int) -> Graph:
        """Subgraph induced on the vertices of mask, relabeled in index order."""
        if mask == 0:
            raise ValueError("induced subgraph on the empty set")
        if mask & ~self.full_mask:
            raise ValueError("vertex set outside the graph")
        keep = list(bits(mask))
        rows = []
        for v in keep:
            row = self.rows[v]
            packed = 0
            for i, u in enumerate(keep):
                packed |= (row >> u & 1) << i
            rows.append(packed)
        return _unchecked_graph(len(keep), tuple(rows))

    def delete_vertex(self, v: int) -> Graph:
        return self.induced(self.full_mask ^ (1 << v))

    def components(self) -> list[int]:
        """Connected components as vertex masks, ordered by lowest vertex."""
        return _components(self.rows, self.full_mask)

    def relabel(self, order: Sequence[int]) -> Graph:
        """New graph whose vertex i is the old vertex order[i]."""
        if sorted(order) != list(range(self.n)):
            raise ValueError("order is not a permutation of the vertices")
        pos = [0] * self.n
        for i, v in enumerate(order):
            pos[v] = i
        rows = [0] * self.n
        for i, v in enumerate(order):
            packed = 0
            row = self.rows[v]
            while row:
                low = row & -row
                packed |= 1 << pos[low.bit_length() - 1]
                row ^= low
            rows[i] = packed
        return _unchecked_graph(self.n, tuple(rows))


def _components(rows: Sequence[int], mask: int) -> list[int]:
    """Components of the subgraph that rows induce on the vertices of mask,
    as vertex masks ordered by lowest vertex."""
    comps = []
    while mask:
        comp = 0
        frontier = mask & -mask
        while frontier:
            comp |= frontier
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & mask & ~comp
        comps.append(comp)
        mask ^= comp
    return comps


_new = object.__new__
# setting the fields one by one, as __init__ does, keeps the instance's
# compact attribute storage; writing to g.__dict__ would give each
# instance a dict of its own, 64 bytes more
_set = object.__setattr__


def _unchecked_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """Graph(n, rows) without validation, for rows valid by construction.

    Only derivations of an already valid graph use it; every graph that
    enters from outside goes through Graph(...), from_edges or graph6.
    """
    g = _new(Graph)
    _set(g, "n", n)
    _set(g, "rows", rows)
    return g


@frozen
class ColoredGraph:
    """A graph with one color index per vertex."""

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.graph.n:
            raise ValueError("color count does not match vertex count")
        if min(self.colors) < 0:
            raise ValueError("negative color index")

    @property
    def n(self) -> int:
        return self.graph.n

    def delete_vertex(self, v: int) -> ColoredGraph:
        colors = self.colors[:v] + self.colors[v + 1 :]
        return _unchecked_colored(self.graph.delete_vertex(v), colors)

    def swapped(self) -> ColoredGraph:
        """Exchange the two colors of a 2-colored graph."""
        if any(c > 1 for c in self.colors):
            raise ValueError("color swap is defined for 2-colored graphs only")
        return _unchecked_colored(self.graph, tuple(1 - c for c in self.colors))


def _unchecked_colored(graph: Graph, colors: tuple[int, ...]) -> ColoredGraph:
    """ColoredGraph(graph, colors) without validation, for colors valid by
    construction: one non-negative color per vertex of graph.

    Like _unchecked_graph, only derivations use it; colored graphs from
    outside go through ColoredGraph(...) or graph6 with colors.
    """
    cg = _new(ColoredGraph)
    _set(cg, "graph", graph)
    _set(cg, "colors", colors)
    return cg


def disjoint_union(g: Graph, h: Graph) -> Graph:
    if g.n + h.n > MAX_VERTICES:
        raise CapacityError(f"union on {g.n + h.n} vertices exceeds {MAX_VERTICES}")
    rows = g.rows + tuple(row << g.n for row in h.rows)
    return Graph(g.n + h.n, rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    if g.n + h.n > MAX_VERTICES:
        raise CapacityError(f"join on {g.n + h.n} vertices exceeds {MAX_VERTICES}")
    h_mask = ((1 << h.n) - 1) << g.n
    g_mask = (1 << g.n) - 1
    rows = tuple(row | h_mask for row in g.rows)
    rows += tuple((row << g.n) | g_mask for row in h.rows)
    return Graph(g.n + h.n, rows)


def is_distance_hereditary(g: Graph) -> bool:
    """Prune isolated vertices, pendants and twins down to a single vertex.

    Each rule is tried lowest index first: isolated or pendant vertices, then
    pairs with equal neighborhoods outside the pair. Outside the pair, open
    and closed neighborhoods coincide, so one test finds false and true
    twins alike. The class is hereditary, so greedy pruning cannot dead-end.
    """
    alive = g.full_mask
    while alive.bit_count() > 1:
        victim = -1
        for v in bits(alive):
            if (g.rows[v] & alive).bit_count() <= 1:
                victim = v
                break
        if victim < 0:
            live = list(bits(alive))
            for i, u in enumerate(live):
                ru = g.rows[u] & alive
                for v in live[i + 1 :]:
                    pair = (1 << u) | (1 << v)
                    if ru & ~pair == g.rows[v] & alive & ~pair:
                        victim = v
                        break
                if victim >= 0:
                    break
        if victim < 0:
            return False
        alive ^= 1 << victim
    return True

