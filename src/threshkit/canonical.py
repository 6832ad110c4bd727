"""Canonical forms via exact search for the minimal adjacency bit-string.

The canonical representative is the relabeling that minimizes the
column-major upper-triangle bit-string (the graph6 body). For colored
graphs the sorted color sequence comes first, so equal forms mean
color-preserving isomorphism, not isomorphism up to color renaming.

The search places one vertex per level and keeps every partial order whose
columns so far are minimal. A state is an ordered partition of the
unplaced vertices: cells of vertices with equal profiles (adjacency to the
placed vertices, earliest placed in the most significant bit), sorted by
ascending profile. The next column is the profile of the vertex placed
next, so the candidates are the vertices of the wanted color in the first
cell that has any. Placing u splits every cell into its non-neighbors
(profile p << 1) and its neighbors (p << 1 | 1) of u, which keeps the cells
sorted. States with equal cells have equal futures and merge, and of twin
candidates (whose transposition is an automorphism) only the lowest is
tried. This is the ordered-partition view of individualization (McKay and
Piperno, "Practical graph isomorphism, II", 2014) without refinement to an
equitable partition, which the minimal-string definition does not allow;
the search stays exponential on highly symmetric graphs, hence the
canonical_max_n bound.

The search yields the packed form as well as the order: the minimal
profile it picks at level L is column L of the graph6 body, earliest
placed vertex in the top bit, so it packs the columns as it goes, then the
sorted colors of a colored graph. That is enumeration's code, and the
enumeration and discovery walks read it without relabeling a graph or
packing one. Twin masks depend on the edges alone, so a caller that labels
every coloring of one graph computes them once and passes them in.
"""

from __future__ import annotations

from .graph6 import encode_graph6, format_graph_line
from .graphs import ColoredGraph, Graph, _unchecked_colored
from .limits import DEFAULT_LIMITS, Limits

__all__ = [
    "canonical_graph",
    "canonical_form",
    "canonical_colored_graph",
]


def _twin_masks(n: int, rows: tuple[int, ...]) -> list[int]:
    """twins[u]: the vertices whose transposition with u is an automorphism.

    A vertex cannot have both a true and a false twin, so twinhood is an
    equivalence, and twins[u] | 1 << u is the twin class of u.
    """
    twins = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u):
                twins[u] |= 1 << v
                twins[v] |= 1 << u
    return twins


def _min_order(n: int, rows: tuple[int, ...], colors: tuple[int, ...] | None,
               twins: list[int] | None = None) -> tuple[tuple[int, ...], int]:
    """(order, code): the order that relabels the graph to its canonical
    form, and that form packed as enumeration._code packs it (colors must
    then be 0 or 1). twins, if given, is _twin_masks(n, rows); it depends
    on the rows alone, so all colorings of one graph share it."""
    full = (1 << n) - 1
    if colors is None:
        want = [0] * n
        color_masks = {0: full}
    else:
        want = sorted(colors)
        color_masks = {}
        for v, c in enumerate(colors):
            color_masks[c] = color_masks.get(c, 0) | 1 << v
    # only the lowest candidate of each twin class is tried
    if twins is None:
        twins = _twin_masks(n, rows)
    # states maps cells to the order that reached them first. Cells
    # partition the unplaced vertices by profile, ascending, where a profile
    # packs adjacency to the placed vertices, earliest placed in the most
    # significant bit. All live states realize the same minimal
    # (colors, columns) prefix.
    states: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {((0, full),): ()}
    # the minimal profile of each level is the next column of the graph6
    # body, pair (0, level) in its top bit
    code = 1
    for level in range(n):
        target = color_masks[want[level]]
        best = -1
        live: list[tuple[tuple[tuple[int, int], ...], tuple[int, ...], int]] = []
        for cells, order in states.items():
            # the next column is the first profile that has the wanted color
            for p, mask in cells:
                if mask & target:
                    break
            if best < 0 or p < best:
                best = p
                live = []
            elif p > best:
                continue
            live.append((cells, order, mask & target))
        code = code << level | best
        merged: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
        for cells, order, cand in live:
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if twins[u] & cand & (low - 1):
                    continue
                row = rows[u]
                other = ~(row | low)  # u itself leaves its cell
                split: list[tuple[int, int]] = []
                for p, mask in cells:
                    if mask & other:
                        split.append((p << 1, mask & other))
                    if mask & row:
                        split.append((p << 1 | 1, mask & row))
                key = tuple(split)
                if key not in merged:
                    merged[key] = order + (u,)
        states = merged
    if colors is not None:
        for c in want:
            code = code << 1 | c
    return states[()], code


def canonical_graph(g: Graph, limits: Limits = DEFAULT_LIMITS) -> Graph:
    limits.require("canonical_max_n", g.n, f"canonical form on {g.n} vertices exceeds")
    return g.relabel(_min_order(g.n, g.rows, None)[0])


def canonical_form(g: Graph | ColoredGraph, limits: Limits = DEFAULT_LIMITS) -> str:
    """Total isomorphism invariant, printable as graph6; for a ColoredGraph
    the color-preserving form, graph6 and color string."""
    if isinstance(g, ColoredGraph):
        return format_graph_line(canonical_colored_graph(g, limits))
    return encode_graph6(canonical_graph(g, limits))


def canonical_colored_graph(cg: ColoredGraph, limits: Limits = DEFAULT_LIMITS) -> ColoredGraph:
    limits.require("canonical_max_n", cg.n, f"canonical form on {cg.n} vertices exceeds")
    order = _min_order(cg.n, cg.graph.rows, cg.colors)[0]
    return _unchecked_colored(cg.graph.relabel(order), tuple(cg.colors[v] for v in order))

