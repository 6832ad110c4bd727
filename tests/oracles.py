"""Trivially correct generators that the enumeration tests check the
production generator against."""

from itertools import combinations, product

from threshkit.canonical import canonical_graph
from threshkit.enumeration import _extend, _representatives, check_range
from threshkit.graph6 import encode_graph6
from threshkit.graphs import Graph
from threshkit.limits import DEFAULT_LIMITS, Limits


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
            out.append(_extend(h, mask))
    return out
