"""Threshold graphs: greedy recognition, threshold orders, build trees."""

from __future__ import annotations

from .graphs import Graph
from .records import frozen
from .sequences import ADD, JOIN_ALL, BuildSequence, Step

__all__ = ["ThresholdCertificate", "is_threshold", "threshold_order", "build_threshold_tree"]

ISOLATED = "isolated"
UNIVERSAL = "universal"


@frozen
class ThresholdCertificate:
    """Vertices in removal order, each isolated or universal at its turn."""

    elimination: tuple[tuple[int, str], ...]


def is_threshold(g: Graph) -> ThresholdCertificate | None:
    """Greedily remove isolated-or-universal vertices, lowest index first.

    The defining property is hereditary, so any greedy choice is safe.
    """
    rows = g.rows
    alive = g.full_mask
    removed: list[tuple[int, str]] = []
    while alive:
        top = alive.bit_count() - 1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            deg = (rows[v] & alive).bit_count()
            if deg == 0:
                removed.append((v, ISOLATED))
                break
            if deg == top:
                removed.append((v, UNIVERSAL))
                break
            rest ^= low
        else:
            return None
        alive ^= low
    return ThresholdCertificate(tuple(removed))


def threshold_order(g: Graph) -> tuple[int, ...] | None:
    """Vertices by ascending degree (ties by index); None if not threshold.

    For threshold graphs this order linearizes the neighborhood preorder:
    N(v_i) within N(v_j) for nonadjacent pairs i < j, closed neighborhoods
    for adjacent pairs.
    """
    if is_threshold(g) is None:
        return None
    return tuple(sorted(range(g.n), key=lambda v: (g.degrees[v], v)))


def build_threshold_tree(g: Graph) -> BuildSequence | None:
    """An {add, joinall} sequence evaluating back to g exactly, if threshold."""
    cert = is_threshold(g)
    if cert is None:
        return None
    steps = []
    order = []
    for v, kind in reversed(cert.elimination):
        steps.append(Step(0, ADD if kind == ISOLATED else JOIN_ALL))
        order.append(v)
    return BuildSequence(1, tuple(steps), tuple(order))
