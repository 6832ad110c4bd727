"""Threshold graphs, the one-color {add, join_all} case of the k-threshold
dialects: greedy recognition over raw ints (rows and an alive mask, so any
vertex set of a graph is tested in place), build-sequence certificates and
threshold orders.
"""

from __future__ import annotations

from .graphs import Graph
from .sequences import ADD, JOIN_ALL, BuildSequence, _sequence

__all__ = ["threshold_picks", "is_threshold", "threshold_order"]


def threshold_picks(rows: tuple[int, ...], alive: int) -> list[tuple[int, int]] | None:
    """The greedy loop over raw ints: the removals, as (vertex, op index)
    pairs in removal order, that shrink alive to one vertex, or None when
    the graph rows induce on alive is not threshold.

    Op 0 (add) removes a vertex with no alive neighbour, op 1 (join_all) one
    adjacent to every other alive vertex. Each step removes the lowest-index
    vertex either op removes, preferring add. The defining property is
    hereditary, so any greedy choice is safe.
    """
    picks: list[tuple[int, int]] = []
    while alive & (alive - 1):
        top = alive.bit_count() - 1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            deg = (rows[v] & alive).bit_count()
            if deg == 0:
                picks.append((v, 0))
                break
            if deg == top:
                picks.append((v, 1))
                break
            rest ^= low
        else:
            return None
        alive ^= low
    return picks


def is_threshold(g: Graph) -> BuildSequence | None:
    """An {add, joinall} sequence evaluating back to g exactly, if threshold."""
    full = g.full_mask
    picks = threshold_picks(g.rows, full)
    return None if picks is None else _sequence(1, (ADD, JOIN_ALL), (0,) * g.n, full, picks)


def threshold_order(g: Graph) -> tuple[int, ...] | None:
    """Vertices by ascending degree (ties by index); None if not threshold.

    For threshold graphs this order linearizes the neighborhood preorder:
    N(v_i) within N(v_j) for nonadjacent pairs i < j, closed neighborhoods
    for adjacent pairs.
    """
    if threshold_picks(g.rows, g.full_mask) is None:
        return None
    return tuple(sorted(range(g.n), key=lambda v: (g.degrees[v], v)))
