"""Induced-subgraph embedding search, optionally color-preserving.

Each pattern vertex keeps its host candidates as one bitmask (Ullmann, "An
algorithm for subgraph isomorphism", 1976): the host vertices in its degree
window and of matching color, narrowed by the image of each earlier pattern
vertex to its neighbours or non-neighbours. Neither narrowing keeps the
image itself, so no used-vertex set is needed. Candidates are tried lowest
first, so the first embedding found is the lexicographically first.

The degree window of a pattern vertex of degree k, for a pattern on p
vertices and a host on h, is at_least[k] & at_most[k + h - p]: its image
needs k neighbours, and as many non-neighbours as it has, p - 1 - k. A
host vertex outside the window is in no embedding, so dropping it leaves
the first embedding unchanged. Before any mask is built, a pattern is
skipped when the host has fewer edges, fewer non-edges or fewer vertices of
some color than the pattern has (the counting rules of VF2, Cordella et
al., 2004, applied to the whole pattern).

A forbidden-subgraph scan tries a whole pattern list against one host, so
find_first_embedding builds the host's tables once for the list, from the
rows and the coloring as plain ints: vertices by least degree, vertices by
color and the tuple of color counts, and, only when some pattern reaches
the search, non-neighbour rows. The pattern side of those tests (degrees,
edge and non-edge counts, and a tuple of color counts compared with the
host's color by color) depends on the pattern alone: a PatternList
computes it once, and find_first_embedding takes nothing else. The scan
lists of the recognizers in obstructions are PatternLists built once per
process from the shipped catalogs; the two switching-closed ones carry a
gate, the descent of obstructions, that decides whether any of their
patterns embeds before the scan. A pattern with a vertex whose starting
candidate mask is empty cannot embed and is skipped without a search.

On a host the pattern does not embed in, the search runs to the end, and a
symmetric pattern would reach each partial embedding once per automorphism
(48 times for 3K2). So the search applies symmetry-breaking conditions
(Grochow & Kellis, "Network motif discovery using subgraph enumeration and
symmetry-breaking", RECOMB 2007). A PatternList finds each pattern's
automorphisms, color-preserving for a colored pattern, as the pattern's
embeddings into itself with the same search. Along the stabilizer chain
with base 0, 1, ..., p - 1, each u in the orbit of i under the
automorphisms fixing 0..i-1 gets the condition f(i) < f(u). When u has
several, the one with the largest i implies the others (that i is itself
in the orbits of the smaller ones), so each pattern vertex needs at most
one mask AND. If the lexicographically least embedding of an automorphism
class broke a condition f(i) < f(u), composing it with the automorphism
that fixes 0..i-1 and moves i to u would give a smaller one. So the least
of each class meets every condition, the first embedding found is the
same, and only the other members of each class go unvisited.
"""

from __future__ import annotations

from operator import gt
from typing import Callable, Optional, Sequence

from .graphs import Graph

__all__ = ["PatternList", "find_first_embedding"]

# (name, pattern graph, pattern colors or None)
Pattern = tuple[Optional[str], Graph, Optional[tuple[int, ...]]]


def _automorphisms(
    prows: tuple[int, ...], pdegrees: tuple[int, ...], colors: tuple[int, ...] | None
) -> list[tuple[int, ...]]:
    """Every automorphism of a pattern, color-preserving when colors are
    given, in lexicographic order: its embeddings into itself, each vertex
    starting from the vertices of its own degree and color."""
    p = len(prows)
    full = (1 << p) - 1
    keys = list(zip(pdegrees, colors or (0,) * p))
    base = [sum(1 << u for u in range(p) if keys[u] == key) for key in keys]
    found: list[tuple[int, ...]] = []
    _search(prows, [full ^ row ^ (1 << v) for v, row in enumerate(prows)], prows, base,
            (-1,) * p, found)
    return found


def _conditions(automorphisms: list[tuple[int, ...]], p: int) -> tuple[int, ...]:
    """after[u]: the largest i with u in the orbit of i under the
    automorphisms fixing 0..i-1, other than i itself, or -1 for none. An
    embedding f must map u above f(after[u])."""
    after = [-1] * p
    group = automorphisms
    for i in range(p):
        for sigma in group:
            if sigma[i] != i:
                after[sigma[i]] = i
        group = [sigma for sigma in group if sigma[i] == i]
    return tuple(after)


def _pattern_constants(name: Optional[str], pattern: Graph, colors: tuple[int, ...] | None,
                       after: tuple[int, ...]) -> tuple:
    """(name, rows, vertices, edges, non-edges, degrees, colors, the count
    of each color 0..max(colors) or None, symmetry-breaking conditions
    after)."""
    p = pattern.n
    edges = pattern.edge_count()
    counts = None
    if colors is not None:
        counts = tuple(colors.count(c) for c in range(max(colors) + 1))
    return (name, pattern.rows, p, edges, p * (p - 1) // 2 - edges,
            pattern.degrees, colors, counts, after)


def _constants(patterns: Sequence[Pattern]) -> tuple:
    """The constants of each pattern, with its symmetry-breaking conditions."""
    return tuple(
        _pattern_constants(name, pattern, colors, _conditions(
            _automorphisms(pattern.rows, pattern.degrees, colors), pattern.n))
        for name, pattern, colors in patterns
    )


class PatternList(tuple):
    """A tuple of patterns that carries their constants, computed once, and
    optionally a gate: a test of a host that is false only when no pattern
    embeds in it."""

    def __new__(cls, patterns: Sequence[Pattern],
                gate: Optional[Callable[[Graph], bool]] = None) -> PatternList:
        self = super().__new__(cls, patterns)
        self.constants = _constants(self)
        self.gate = gate
        return self


def find_first_embedding(
    host: Graph,
    patterns: PatternList,
    host_coloring: tuple[int, ...] | None = None,
) -> tuple[Optional[str], tuple[int, ...]] | None:
    """(name, embedding) for the first pattern in list order that embeds in
    host as an induced subgraph, with its lexicographically first
    embedding; None if no pattern does.

    Pattern colors are given exactly when host_coloring is, and then every
    embedding must preserve colors exactly. A host the list's gate rejects
    gets None without a search.
    """
    if patterns.gate is not None and not patterns.gate(host):
        return None
    return _first_embedding(host, patterns.constants, host_coloring)


def _first_embedding(host: Graph, constants: tuple, host_coloring: tuple[int, ...] | None):
    """find_first_embedding over the patterns with these constants."""
    h = host.n
    hrows = host.rows
    # at_least[k]: the host vertices of degree >= k; at_least[h] is empty
    at_least = [0] * (h + 1)
    edges = 0
    for v, row in enumerate(hrows):
        k = row.bit_count()
        edges += k
        at_least[k] |= 1 << v
    for k in range(h - 1, -1, -1):
        at_least[k] |= at_least[k + 1]
    edges >>= 1
    non_edges = h * (h - 1) // 2 - edges
    # by_color[c]: the host vertices of color c; color_counts their sizes
    by_color = []
    if host_coloring is not None:
        by_color = [0] * (max(host_coloring) + 1)
        for v, c in enumerate(host_coloring):
            by_color[c] |= 1 << v
    color_counts = tuple(m.bit_count() for m in by_color)
    non_rows = None  # built for the first pattern that reaches the search
    for name, prows, p, pedges, pnon, pdegrees, colors, counts, after in constants:
        if (colors is None) != (host_coloring is None):
            raise ValueError("supply both colorings or neither")
        if p > h or pedges > edges or pnon > non_edges:
            continue
        # at_least[k] ^ at_least[k + top] is at_least[k] & at_most[k + h - p]
        top = h - p + 1
        if counts is None:
            base = [at_least[k] ^ at_least[k + top] for k in pdegrees]
        else:
            if len(counts) > len(color_counts) or any(map(gt, counts, color_counts)):
                continue
            base = [(at_least[k] ^ at_least[k + top]) & by_color[c]
                    for k, c in zip(pdegrees, colors)]
        if not all(base):
            continue
        if non_rows is None:
            # non_rows[v]: the host vertices other than v that v is not adjacent to
            full = (1 << h) - 1
            non_rows = [full ^ row ^ (1 << v) for v, row in enumerate(hrows)]
        embedding = _search(hrows, non_rows, prows, base, after)
        if embedding is not None:
            return name, embedding
    return None


def _search(
    hrows: tuple[int, ...], non_rows: list[int], prows: tuple[int, ...], base: list[int],
    after: tuple[int, ...], found: list | None = None,
) -> tuple[int, ...] | None:
    """The lowest-first search of one pattern, from its starting masks,
    mapping each vertex u with after[u] >= 0 above the image of after[u].
    Returns the first embedding; given a list found, appends every
    embedding to it instead and returns None."""
    p = len(prows)
    mapping = [0] * p
    left = [0] * p  # the candidates of each depth not tried yet
    left[0] = base[0]
    depth = 0
    while depth >= 0:
        cand = left[depth]
        if not cand:
            depth -= 1
            continue
        low = cand & -cand
        left[depth] = cand ^ low
        mapping[depth] = low.bit_length() - 1
        if depth == p - 1:
            if found is None:
                return tuple(mapping)
            found.append(tuple(mapping))
            continue
        depth += 1
        prow = prows[depth]
        mask = base[depth]
        for j in range(depth):
            mask &= hrows[mapping[j]] if prow >> j & 1 else non_rows[mapping[j]]
        i = after[depth]
        if i >= 0:
            mask &= ~((2 << mapping[i]) - 1)
        left[depth] = mask
    return None
