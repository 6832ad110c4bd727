"""Canonical forms via exact search for the minimal adjacency bit-string.

The canonical representative is the relabeling that minimizes the
column-major upper-triangle bit-string (the graph6 body). For colored
graphs the sorted color sequence comes first, so equal forms mean
color-preserving isomorphism, not isomorphism up to color renaming.

The search places one vertex per level and keeps every partial order whose
columns so far are minimal. A vertex's profile is its adjacency to the
placed vertices, earliest placed in the most significant bit; the next
column is the profile of the vertex placed next. A state holds its order,
its unplaced vertices and its candidates, the unplaced vertices of the
wanted color whose profile is least, and all live states share that least
profile p. Placing candidate u makes p into p << 1 for its non-neighbors
and p << 1 | 1 for its neighbors, so while other candidates remain and the
color stays, the child's candidates follow from the parent's in a few mask
operations; otherwise the vertices of the wanted color are filtered
through the rows of the order. Of twin candidates (whose transposition is
an automorphism) only the lowest is tried. A state whose unplaced vertices
are all candidates is determined by that set, so only the first order to
reach it is kept: this joins the orders of a module placed whole, such as
one side of a join. This is the ordered-partition view of
individualization (McKay and Piperno, "Practical graph isomorphism, II",
2014) with neither refinement to an equitable partition, which the
minimal-string definition does not allow, nor the partition itself: a
state keeps only the first cell that has the wanted color. The search
stays exponential on highly symmetric graphs, hence the canonical_max_n
bound.

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
    # A state is (order, unplaced, cand). All live states realize the same
    # minimal (colors, columns) prefix and share p, the least profile of an
    # unplaced vertex of the wanted color; cand holds the vertices that
    # have it.
    states = [((), full, color_masks[want[0]])]
    p = 0
    code = 1
    for level in range(n - 1):
        # p is column level of the graph6 body, pair (0, level) in its top bit
        code = code << level | p
        target = color_masks[want[level + 1]]
        same = want[level + 1] == want[level]
        best = -1
        live: list[tuple[tuple[int, ...], int, int]] = []
        # the unplaced sets of the live states whose unplaced vertices are
        # all candidates: such a state's future depends on that set alone,
        # so the first order to reach it stands for all
        single: set[int] = set()
        for order, unplaced, cand in states:
            rest = cand
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if twins[u] & cand & (low - 1):
                    continue
                row = rows[u]
                left = unplaced ^ low
                others = cand ^ low
                if same and others:
                    # the other candidates get p << 1 or p << 1 | 1, and
                    # every other vertex of the color stays above both
                    c = others & ~row
                    if c:
                        q = p << 1
                    else:
                        q = p << 1 | 1
                        c = others
                else:
                    # filter the unplaced vertices of the color through the
                    # rows of the child's order: non-neighbors while any remain
                    q = 0
                    c = left & target
                    for w in order + (u,):
                        if m := c & ~rows[w]:
                            q <<= 1
                            c = m
                        else:
                            q = q << 1 | 1
                if q != best:
                    if best >= 0 and q > best:
                        continue
                    best = q
                    live = []
                    single = set()
                if c == left:
                    if left in single:
                        continue
                    single.add(left)
                live.append((order + (u,), left, c))
        states = live
        p = best
    code = code << n - 1 | p
    order, _, last = states[0]
    if colors is not None:
        for c in want:
            code = code << 1 | c
    return order + (last.bit_length() - 1,), code


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

