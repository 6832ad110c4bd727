"""Seidel switching, switching classes, switch-to-threshold search.

The brute-force oracle tries every switch set without vertex 0 in
ascending order. brute_switch_scan runs it for a chain of nested classes
in one pass, one switch per set, offering each switch to a predicate
only when every wider one accepted it. switch_to_threshold and
has_cograph_switch return the oracle's certificate without walking every
set: the first from n + 2 candidate sets, the second depth first, dropping
partial sets that already induce a P4.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .canonical import canonical_graph
from .graph6 import encode_graph6
from .graphs import Graph, _unchecked_graph, bits
from .kthreshold import elimination_picks
from .limits import DEFAULT_LIMITS, Limits
from .records import frozen

__all__ = [
    "switch",
    "switching_class",
    "switching_class_graphs",
    "SwitchCertificate",
    "brute_switch_scan",
    "switch_to_threshold",
    "is_cograph",
    "is_switch_cograph",
    "has_cograph_switch",
]


def switch(g: Graph, s: int) -> Graph:
    """Toggle every pair with one endpoint in s and the other outside."""
    if s & ~g.full_mask:
        raise ValueError("switch set outside the graph")
    return _unchecked_graph(g.n, _switched_rows(g.rows, g.full_mask, s))


def _switched_rows(rows: Sequence[int], full: int, s: int) -> tuple[int, ...]:
    """The rows of the switch by s, a subset of full: a vertex in s toggles
    its pairs with full ^ s, one outside toggles its pairs with s, and
    neither set holds the vertex itself."""
    out = full ^ s
    return tuple(row ^ (out if s >> v & 1 else s) for v, row in enumerate(rows))


@frozen
class SwitchCertificate:
    set: int
    target: Graph


def brute_switch_scan(
    g: Graph, accepts: Sequence[Callable[[Graph], bool]], limits: Limits = DEFAULT_LIMITS
) -> tuple[SwitchCertificate | None, ...]:
    """Oracle: for each predicate of a chain of nested classes, the first
    switch set (ascending masks, vertex 0 excluded) whose switch it
    accepts, from one switch per set.

    Order matters: accepts runs from the widest class to the narrowest,
    each predicate implying the one before it, and a switch is offered to
    a predicate only when every earlier one accepted it. The sets are
    tried in ascending order until the last predicate has its hit, so for
    such a chain each predicate finds exactly what a scan with it alone
    would.
    """
    limits.require("coloring_budget", 1 << max(0, g.n - 1), f"2^{g.n - 1} switch sets exceed")
    hits: list[SwitchCertificate | None] = [None] * len(accepts)
    n, rows, full = g.n, g.rows, g.full_mask
    for s in range(0, 1 << n, 2):
        target = _unchecked_graph(n, _switched_rows(rows, full, s))
        for i, accept in enumerate(accepts):
            if not accept(target):
                break
            if hits[i] is None:
                hits[i] = SwitchCertificate(s, target)
        else:
            break  # the narrowest class accepted, so every predicate has its hit
    return tuple(hits)


def _threshold_switch_sets(g: Graph) -> list[int]:
    """Sorted switch sets without vertex 0 that include the least threshold one.

    Switching by the white class of a restricted 2-threshold coloring gives
    a threshold graph, and conversely: a vertex removed by join_c becomes
    dominating when c is its own color and isolated otherwise. The first
    removal join_c of x fixes every other color (neighbours of x get c),
    and the color of x is free, so the least threshold switch set has
    vertex 0 and x outside it.
    """
    sets = {0}  # the all-black coloring, the only one when n = 1
    for x in range(1, g.n):
        # c is the color that leaves vertex 0 black
        white = ~g.rows[x] if g.rows[x] & 1 else g.rows[x]
        sets.add(white & g.full_mask & ~(1 << x))
    nb = g.rows[0]
    sets.update((nb, g.full_mask & ~nb & ~1))  # x = 0, c = WHITE or BLACK
    return sorted(sets)


def switch_to_threshold(g: Graph) -> SwitchCertificate | None:
    """First switch set (ascending masks, vertex 0 excluded) giving a threshold graph.

    Same result as brute_switch_scan with is_threshold, from at most n + 2
    switches instead of 2^(n-1). The search is polynomial, so no limit
    applies.
    """
    for s in _threshold_switch_sets(g):
        target = switch(g, s)
        full = target.full_mask
        if elimination_picks(target.rows, full, (0, full)) is not None:
            return SwitchCertificate(s, target)
    return None


def switching_class(g: Graph, limits: Limits = DEFAULT_LIMITS) -> tuple[str, ...]:
    """Sorted canonical forms of all switches of g (vertex 0 kept outside s)."""
    return tuple(encode_graph6(h) for h in switching_class_graphs(g, limits))


def switching_class_graphs(g: Graph, limits: Limits = DEFAULT_LIMITS) -> tuple[Graph, ...]:
    """Canonical representative graphs of the switching class, sorted by form."""
    reps: dict[str, Graph] = {}
    for s in range(0, 1 << g.n, 2):
        canon = canonical_graph(switch(g, s), limits)
        reps.setdefault(encode_graph6(canon), canon)
    return tuple(reps[form] for form in sorted(reps))


def is_cograph(g: Graph) -> bool:
    """No induced P4 a-b-c-d: cographs are exactly the P4-free graphs.

    For each edge bc, a runs over N(b) minus N[c] and d over N(c) minus
    N[b], two disjoint sets; any a with a non-neighbour d closes a P4.
    """
    rows = g.rows
    for b, rb in enumerate(rows):
        later = rb >> b + 1 << b + 1
        while later:
            low = later & -later
            later ^= low
            rc = rows[low.bit_length() - 1]
            ends = rc & ~rb & ~(1 << b)
            if ends:
                starts = rb & ~rc & ~low
                while starts:
                    a = starts & -starts
                    if ends & ~rows[a.bit_length() - 1]:
                        return False
                    starts ^= a
    return True


def is_switch_cograph(g: Graph) -> bool:
    """Some switch of g is a cograph.

    Equivalent to: the switch isolating vertex 0 is a cograph. A cograph
    switch rules out the cogem (P4 + K1) throughout the switching class, so
    the switch in which vertex 0 is isolated has no P4 either.
    """
    return is_cograph(switch(g, g.rows[0]))


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


def _least_cograph_switch(g: Graph) -> int | None:
    """The least switch set without vertex 0 whose switch of g is a
    cograph, or None.

    Depth first, vertex n - 1 decided first and vertex 1 last, each left
    out of the set before it is put in, so complete sets come in ascending
    order. Every completion of a partial set induces the same graph on the
    decided vertices and vertex 0; cographs are hereditary, so a partial
    set whose induced graph has a P4 is dropped, and only the P4s through
    the vertex just decided are new.
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


def has_cograph_switch(g: Graph, limits: Limits = DEFAULT_LIMITS) -> SwitchCertificate | None:
    """First switch of g that is a cograph, if any: the certificate
    brute_switch_scan with is_cograph finds.

    Non-members are rejected in polynomial time. A member's certificate
    comes from the depth-first search of _least_cograph_switch, guarded
    up front by the budget, like the brute-force search, against its worst
    case of 2^(n-1) switch sets.
    """
    if not is_switch_cograph(g):
        return None
    limits.require("coloring_budget", 1 << max(0, g.n - 1), f"2^{g.n - 1} switch sets exceed")
    s = _least_cograph_switch(g)
    return SwitchCertificate(s, switch(g, s))
