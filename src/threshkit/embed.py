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
rows and the coloring as plain ints: vertices by least degree, edge and
non-edge counts, vertices by color and the tuple of color counts. It
builds them at the first pattern no larger than the host, so a host
smaller than every pattern costs nothing. The scan lists of the
recognizers in obstructions are PatternLists built once per process from
the shipped catalogs; the two switching-closed ones carry a gate, the
descent of obstructions, that decides whether any of their patterns
embeds before the scan.

Each pattern's search is Python source generated from the pattern alone
and compiled the first time a scan reaches the pattern on a host at least
as large as it, so once per pattern per PatternList, about 0.3 ms each; a
list that never meets a large enough host compiles nothing. The source
holds the pattern's count tests and the degree window of each vertex as
integer literals, then one nested loop per pattern vertex, whose
candidate mask is a single expression: the vertex's starting mask ANDed
with the row of each earlier image it is adjacent to and the non-row (the
complement of the row, less the image itself) of each it is not. The
last vertex needs no loop, since its lowest candidate completes the first
embedding. Python allows 20 statically nested loops, so a PatternList
refuses a pattern on more than 21 vertices. That bound is far from
reached: the paper's obstructions are small, the scan lists' patterns
have at most 7 vertices and the largest shipped catalog entry has 8. A
generated search returns False when the counts or an empty starting mask
rule the pattern out, so without a search; None when the search finds no
embedding; else the embedding. Only integers enter the source: names,
colorings and host tables are values.

On a host the pattern does not embed in, the search runs to the end, and a
symmetric pattern would reach each partial embedding once per automorphism
(48 times for 3K2). So the search applies symmetry-breaking conditions
(Grochow & Kellis, "Network motif discovery using subgraph enumeration and
symmetry-breaking", RECOMB 2007). A PatternList finds each pattern's
automorphisms, color-preserving for a colored pattern, as the pattern's
embeddings into itself with _search, the interpreted form of the same
search, which yields every embedding. Along the stabilizer chain with base
0, 1, ..., p - 1, each u in the orbit of i under the automorphisms fixing
0..i-1 gets the condition f(i) < f(u). When u has several, the one with
the largest i implies the others (that i is itself in the orbits of the
smaller ones), so each pattern vertex needs at most one mask AND. If the
lexicographically least embedding of an automorphism class broke a
condition f(i) < f(u), composing it with the automorphism that fixes
0..i-1 and moves i to u would give a smaller one. So the least of each
class meets every condition, the first embedding found is the same, and
only the other members of each class go unvisited.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from .graphs import Graph

__all__ = ["PatternList", "find_first_embedding"]

# (name, pattern graph, pattern colors or None)
Pattern = tuple[Optional[str], Graph, Optional[tuple[int, ...]]]

# CPython's limit on statically nested blocks, each loop being one
_MAX_LOOPS = 20


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
    return list(_search(prows, [full ^ row ^ (1 << v) for v, row in enumerate(prows)], prows,
                        base, (-1,) * p))


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
    """A tuple of patterns, all colored or all uncolored, that carries their
    constants, computed once, their generated searches, each compiled when
    a scan first needs it, and optionally a gate: a test of a host that is
    false only when no pattern embeds in it."""

    def __new__(cls, patterns: Sequence[Pattern],
                gate: Optional[Callable[[Graph], bool]] = None) -> PatternList:
        self = super().__new__(cls, patterns)
        kinds = {colors is not None for _, _, colors in self}
        if len(kinds) > 1:
            raise ValueError("a pattern list is all colored or all uncolored")
        self.colored = kinds.pop() if kinds else None
        if any(pattern.n > _MAX_LOOPS + 1 for _, pattern, _ in self):
            raise ValueError(f"a pattern has more than {_MAX_LOOPS + 1} vertices, "
                             f"so its search would nest more than {_MAX_LOOPS} loops")
        self.constants = _constants(self)
        self.sizes = tuple(pattern.n for _, pattern, _ in self)
        self.searches: list[Optional[Callable]] = [None] * len(self)
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
    return _first_embedding(host, patterns, host_coloring)


def _first_embedding(host: Graph, patterns: PatternList, host_coloring: tuple[int, ...] | None):
    """find_first_embedding past the list's gate."""
    if patterns.colored not in (None, host_coloring is not None):
        raise ValueError("supply both colorings or neither")
    h = host.n
    tables = None
    searches = patterns.searches
    for i, p in enumerate(patterns.sizes):
        if p > h:
            continue
        if tables is None:
            tables = _host_tables(host, host_coloring)
        search = searches[i]
        if search is None:
            search = searches[i] = _generate(patterns.constants[i])
        embedding = search(*tables)
        if embedding:
            return patterns[i][0], embedding
    return None


def _host_tables(host: Graph, host_coloring: tuple[int, ...] | None) -> tuple:
    """The arguments of a generated search: (h, rows, at_least, edges,
    non-edges, by_color, color counts)."""
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
    # by_color[c]: the host vertices of color c; color_counts their sizes
    by_color = []
    if host_coloring is not None:
        by_color = [0] * (max(host_coloring) + 1)
        for v, c in enumerate(host_coloring):
            by_color[c] |= 1 << v
    return (h, hrows, at_least, edges, h * (h - 1) // 2 - edges, by_color,
            tuple(m.bit_count() for m in by_color))


def _generate(constants: tuple) -> Callable:
    """The compiled search of the pattern with these constants."""
    namespace: dict = {}
    exec(compile(_source(constants), "<generated search>", "exec"), namespace)
    return namespace["search"]


def _source(constants: tuple) -> str:
    """The source of a pattern's search: a function search of the host
    tables, with one nested loop per pattern vertex but the last, so at
    most _MAX_LOOPS for the at most 21 vertices a PatternList admits."""
    _, prows, p, pedges, pnon, pdegrees, colors, counts, after = constants
    lines = ["def search(h, hrows, at_least, edges, non_edges, by_color, color_counts):",
             f"    if edges < {pedges} or non_edges < {pnon}:",
             "        return False"]
    if counts is not None:
        tests = [f"len(color_counts) < {len(counts)}"]
        tests += [f"color_counts[{c}] < {k}" for c, k in enumerate(counts) if k]
        lines += [f"    if {' or '.join(tests)}:", "        return False"]
    # at_least[k] ^ at_least[k + top] is at_least[k] & at_most[k + h - p];
    # vertices of one degree and color share their starting mask
    lines.append(f"    top = h - {p - 1}")
    keys = list(zip(pdegrees, colors or (None,) * p))
    first: dict[tuple, int] = {}
    for d, key in enumerate(keys):
        if first.setdefault(key, d) == d:
            mask = f"at_least[{key[0]}] ^ at_least[{key[0]} + top]"
            if colors is not None:
                mask = f"({mask}) & by_color[{key[1]}]"
            lines += [f"    b{d} = {mask}", f"    if not b{d}:", "        return False"]
    start = [f"b{first[key]}" for key in keys]

    def mask(d: int) -> str:
        terms = [start[d]] + [f"r{j}" if prows[d] >> j & 1 else f"x{j}" for j in range(d)]
        if after[d] >= 0:
            terms.append(f"-(l{after[d]} << 1)")  # the vertices above the image of after[d]
        return " & ".join(terms)

    images = [f"l{j}.bit_length() - 1" for j in range(p - 1)]
    lines.append(f"    c0 = {start[0]}")
    pad = "    "
    for j in range(p - 1):
        lines += [f"{pad}while c{j}:",
                  f"{pad}    l{j} = c{j} & -c{j}",
                  f"{pad}    c{j} ^= l{j}"]
        pad += "    "
        # the row and non-row of this image, as far as later masks read them
        row = f"hrows[{images[j]}]"
        adjacent = [prows[d] >> j & 1 for d in range(j + 1, p)]
        if any(adjacent):
            lines.append(f"{pad}r{j} = {row}")
            row = f"r{j}"
        if not all(adjacent):
            lines.append(f"{pad}x{j} = ~{row} ^ l{j}")
        lines.append(f"{pad}c{j + 1} = {mask(j + 1)}")
    images.append(f"(c{p - 1} & -c{p - 1}).bit_length() - 1")
    lines += [f"{pad}if c{p - 1}:",
              f"{pad}    return ({', '.join(images)}{',' if p == 1 else ''})",
              "    return None"]
    return "\n".join(lines) + "\n"


def _search(
    hrows: tuple[int, ...], non_rows: list[int], prows: tuple[int, ...], base: list[int],
    after: tuple[int, ...],
) -> Iterator[tuple[int, ...]]:
    """Every embedding of one pattern from its starting masks, mapping each
    vertex u with after[u] >= 0 above the image of after[u], in
    lexicographic order: the interpreted form of the generated searches."""
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
            yield tuple(mapping)
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
