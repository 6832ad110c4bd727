"""Seidel switching, switching classes, switch-to-threshold search."""

from __future__ import annotations

from typing import Callable

from .canonical import canonical_graph
from .graph6 import encode_graph6
from .graphs import Graph, _components, _unchecked_graph
from .limits import DEFAULT_LIMITS, CapacityError, Limits
from .records import frozen
from .threshold import is_threshold

__all__ = [
    "switch",
    "switching_class",
    "switching_class_graphs",
    "SwitchCertificate",
    "brute_switch_search",
    "switch_to_threshold",
    "is_cograph",
    "is_switch_cograph",
    "has_cograph_switch",
]


def switch(g: Graph, s: int) -> Graph:
    """Toggle every pair with one endpoint in s and the other outside."""
    if s & ~g.full_mask:
        raise ValueError("switch set outside the graph")
    out = g.full_mask & ~s
    rows = []
    for v, row in enumerate(g.rows):
        flip = (out if s >> v & 1 else s) & ~(1 << v)
        rows.append(row ^ flip)
    return _unchecked_graph(g.n, tuple(rows))


@frozen
class SwitchCertificate:
    set: int
    target: Graph


def brute_switch_search(
    g: Graph, accept: Callable[[Graph], bool], limits: Limits = DEFAULT_LIMITS
) -> SwitchCertificate | None:
    """Oracle: first switch set (ascending masks, vertex 0 excluded) whose switch is accepted."""
    if 1 << max(0, g.n - 1) > limits.coloring_budget:
        raise CapacityError(f"2^{g.n - 1} switch sets exceed budget {limits.coloring_budget}")
    for s in range(0, 1 << g.n, 2):
        target = switch(g, s)
        if accept(target):
            return SwitchCertificate(s, target)
    return None


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


def switch_to_threshold(g: Graph, limits: Limits = DEFAULT_LIMITS) -> SwitchCertificate | None:
    """First switch set (ascending masks, vertex 0 excluded) giving a threshold graph.

    Same result as brute_switch_search with is_threshold, from at most n + 2
    switches instead of 2^(n-1). The search is polynomial, so no limit
    applies; limits is accepted like the other recognizers'.
    """
    for s in _threshold_switch_sets(g):
        target = switch(g, s)
        if is_threshold(target) is not None:
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
    """Every induced subgraph with >= 2 vertices splits under union or join.

    The parts are vertex masks of g itself: the components of a part under
    g's rows, or else its co-components under the complement's rows.
    """
    full = g.full_mask
    co_rows = [full ^ row ^ (1 << v) for v, row in enumerate(g.rows)]
    stack = [full]
    while stack:
        mask = stack.pop()
        if not mask & (mask - 1):
            continue
        parts = _components(g.rows, mask)
        if len(parts) == 1:
            parts = _components(co_rows, mask)
            if len(parts) == 1:
                return False
        stack.extend(parts)
    return True


def is_switch_cograph(g: Graph) -> bool:
    """Some switch of g is a cograph.

    Equivalent to: the switch isolating vertex 0 is a cograph. A cograph
    switch rules out the cogem (P4 + K1) throughout the switching class, so
    the switch in which vertex 0 is isolated has no P4 either.
    """
    return is_cograph(switch(g, g.rows[0]))


def has_cograph_switch(g: Graph, limits: Limits = DEFAULT_LIMITS) -> SwitchCertificate | None:
    """First switch of g that is a cograph, if any.

    Non-members are rejected in polynomial time; the certificate of a
    member comes from the brute-force search.
    """
    if not is_switch_cograph(g):
        return None
    return brute_switch_search(g, is_cograph, limits)
