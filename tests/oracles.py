"""Trivially correct versions of production searches that the tests check
them against: generators for the enumeration, the cell-partition labeling
search (the reference of canonical._min_order), the pruned product-order
coloring walk (the reference of every coloring search), the per-set
switch scan (the reference of every switch-set search), the depth-first
least cograph switch and the tuple candidate colorings of the two-color
search."""

from itertools import combinations, product

from threshkit.canonical import _twin_masks, canonical_graph
from threshkit.enumeration import _extended_rows, _representatives, check_range
from threshkit.graph6 import encode_graph6
from threshkit.graphs import Graph, _unchecked_graph, bits
from threshkit.kthreshold import Dialect, _class_masks, _sequence, elimination_picks, is_threshold
from threshkit.limits import DEFAULT_LIMITS, Limits
from threshkit.sequences import BLACK, WHITE
from threshkit.switching import SwitchCertificate, _switched_rows, switch


def baseline_graphs(n: int, limits: Limits = DEFAULT_LIMITS) -> tuple[Graph, ...]:
    """All edge subsets, deduped by canonical form."""
    check_range("oracle", n, limits)
    pairs = list(combinations(range(n), 2))
    seen: dict[str, Graph] = {}
    for picks in product((0, 1), repeat=len(pairs)):
        g = Graph.from_edges(n, [e for e, take in zip(pairs, picks) if take])
        canon = canonical_graph(g, limits)
        seen.setdefault(encode_graph6(canon), canon)
    return tuple(seen[form] for form in sorted(seen))


def raw_extensions(n: int, limits: Limits = DEFAULT_LIMITS) -> list[Graph]:
    """All extensions of the canonical (n-1)-level, before canonical dedup.

    Hits every isomorphism class on n vertices at least once, usually many
    times; useful when coverage matters but canonical dedup does not.
    """
    check_range("oracle", n, limits)
    if n == 1:
        return [Graph(1, (0,))]
    out = []
    for h in _representatives(n - 1):
        for mask in range(1 << h.n):
            out.append(_unchecked_graph(n, _extended_rows(h.rows, mask)))
    return out


def oracle_cell_min_order(n: int, rows: tuple[int, ...],
                          colors: tuple[int, ...] | None) -> tuple[tuple[int, ...], int]:
    """canonical._min_order as an ordered-partition search: (order, code).

    A state is an ordered partition of the unplaced vertices: cells of
    vertices with equal profiles (adjacency to the placed vertices,
    earliest placed in the most significant bit), sorted by ascending
    profile. The next column is the profile of the vertex placed next, so
    the candidates are the vertices of the wanted color in the first cell
    that has any. Placing u splits every cell into its non-neighbors
    (profile p << 1) and its neighbors (p << 1 | 1) of u, which keeps the
    cells sorted. States with equal cells have equal futures and merge, and
    of twin candidates only the lowest is tried.
    """
    full = (1 << n) - 1
    if colors is None:
        want = [0] * n
        color_masks = {0: full}
    else:
        want = sorted(colors)
        color_masks = {}
        for v, c in enumerate(colors):
            color_masks[c] = color_masks.get(c, 0) | 1 << v
    twins = _twin_masks(n, rows)
    # cells -> the order that reached them first
    states = {((0, full),): ()}
    code = 1
    for level in range(n):
        target = color_masks[want[level]]
        best = -1
        live = []
        for cells, order in states.items():
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
        merged = {}
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
                split = []
                for p, mask in cells:
                    if mask & other:
                        split.append((p << 1, mask & other))
                    if mask & row:
                        split.append((p << 1 | 1, mask & row))
                merged.setdefault(tuple(split), order + (u,))
        states = merged
    if colors is not None:
        for c in want:
            code = code << 1 | c
    return states[()], code


def is_threshold_graph(g: Graph) -> bool:
    return is_threshold(g) is not None


def oracle_pruned_coloring_search(g: Graph, dialect: Dialect):
    """The first of all k^n colorings, in product order, that the dialect
    eliminates, with its sequence, or None.

    Colors go to vertices 0, 1, ... depth first, each vertex trying its
    colors in increasing order. After each vertex the kernel runs with the
    prefix as alive; it reads no bit outside alive, so this eliminates the
    colored subgraph induced on the prefix. Every dialect's class is
    hereditary, so no extension of a prefix that does not eliminate
    eliminates, and such a prefix is never extended. The full colorings
    reached come in product order. Exponential in the worst case.
    """
    rows, n, k, full = g.rows, g.n, dialect.k, g.full_mask
    coloring = [0] * n
    by_color = [0] * k

    def extend(v: int):
        bit = 1 << v
        for c in range(k):
            coloring[v] = c
            by_color[c] |= bit
            picks = elimination_picks(rows, (bit << 1) - 1, _class_masks(dialect, by_color, full))
            if picks is not None:
                if v + 1 == n:
                    return tuple(coloring), _sequence(dialect, coloring, full, picks)
                found = extend(v + 1)
                if found is not None:
                    return found
            by_color[c] ^= bit
        return None

    return extend(0)


def oracle_switch_scan(g: Graph, accepts) -> tuple:
    """The per-set switch scan: every switch set without vertex 0 in
    ascending order, each switched and offered to the chain of predicates,
    widest first, until the narrowest accepts. Returns the first
    certificate of each predicate, or None. A one-element chain is the
    one-predicate search."""
    hits = [None] * len(accepts)
    for s in range(0, 1 << g.n, 2):
        target = switch(g, s)
        for i, accept in enumerate(accepts):
            if not accept(target):
                break
            if hits[i] is None:
                hits[i] = SwitchCertificate(s, target)
        else:
            break
    return tuple(hits)


def _has_p4_through(adj: list[int], j: int) -> bool:
    """Whether the graph with rows adj has an induced P4 through vertex j.

    Up to reversal, j is an end j-a-b-c or an inner vertex x-j-a-b; both
    go through a neighbour a of j and a neighbour b of a outside N[j].
    """
    closed_j = adj[j] | 1 << j
    for a in bits(adj[j]):
        closed_a = adj[a] | 1 << a
        side = adj[j] & ~closed_a  # candidates for x
        for b in bits(adj[a] & ~closed_j):
            if adj[b] & ~closed_j & ~closed_a or side & ~adj[b]:
                return True
    return False


def oracle_least_cograph_switch(g: Graph) -> int | None:
    """The least switch set without vertex 0 whose switch of g is a
    cograph, or None.

    Depth first, vertex n - 1 decided first and vertex 1 last, each left
    out of the set before it is put in, so complete sets come in ascending
    order. Every completion of a partial set induces the same graph on the
    decided vertices and vertex 0; cographs are hereditary, so a partial
    set whose induced graph has a P4 is dropped, and only the P4s through
    the vertex just decided are new. Exponential in the worst case.
    """
    rows = g.rows

    def extend(j: int, decided: int, s: int) -> int | None:
        if j == 0:
            return s
        decided |= 1 << j
        for t in (s, s | 1 << j):
            # the switch by t induced on the decided vertices
            adj = [row & decided for row in _switched_rows(rows, decided, t)]
            if not _has_p4_through(adj, j):
                hit = extend(j - 1, decided, t)
                if hit is not None:
                    return hit
        return None

    return extend(g.n - 1, 1, 0)


def oracle_candidate_colorings(g: Graph, dialect: Dialect) -> list[tuple[int, ...]]:
    """The two-color search's candidates as sorted coloring tuples: for
    each vertex x left after dropping the vertices removable under every
    coloring, and each join color c, x's neighbours get c and the rest of
    what is left the other color; x and the dropped vertices are BLACK.
    A dialect that joins to both colors keeps only vertex 0 BLACK."""
    kinds = {op.kind for op in dialect.ops}
    alive = g.full_mask
    dropped = True
    while dropped and alive.bit_count() > 1:
        dropped = False
        for v in bits(alive):
            nb = g.rows[v] & alive
            if ("add" in kinds and nb == 0) or ("join_all" in kinds and nb == alive ^ (1 << v)):
                alive ^= 1 << v
                dropped = True
    if alive.bit_count() <= 1:
        return [(BLACK,) * g.n]
    joins = [op.color for op in dialect.ops if op.kind == "join_color"]
    swap_closed = set(joins) == {BLACK, WHITE}
    candidates = set()
    for x in bits(alive):
        nb = g.rows[x]
        for c in joins:
            coloring = [BLACK] * g.n
            for v in bits(alive ^ (1 << x)):
                coloring[v] = c if nb >> v & 1 else 1 - c
            if not (swap_closed and coloring[0] == WHITE):
                candidates.add(tuple(coloring))
    return sorted(candidates)
