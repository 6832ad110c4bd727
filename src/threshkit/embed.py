"""Induced-subgraph embedding search, optionally color-preserving.

Each pattern vertex keeps its host candidates as one bitmask (Ullmann, "An
algorithm for subgraph isomorphism", 1976): the host vertices of large
enough degree and matching color, narrowed by the image of each earlier
pattern vertex to its neighbours or non-neighbours. Neither narrowing keeps
the image itself, so no used-vertex set is needed. Candidates are tried
lowest first, so the first embedding found is the lexicographically first.
"""

from __future__ import annotations

from .graphs import Graph

__all__ = ["find_induced_embedding"]


def find_induced_embedding(
    host: Graph,
    pattern: Graph,
    host_coloring: tuple[int, ...] | None = None,
    pattern_coloring: tuple[int, ...] | None = None,
) -> tuple[int, ...] | None:
    """First injective map (in lexicographic order) realizing pattern as an
    induced subgraph of host; None if there is none.

    With both colorings supplied the embedding must preserve colors exactly.
    """
    if (host_coloring is None) != (pattern_coloring is None):
        raise ValueError("supply both colorings or neither")
    p, h = pattern.n, host.n
    if p > h:
        return None
    hrows, prows = host.rows, pattern.rows
    full = host.full_mask
    # at_least[k]: the host vertices of degree >= k
    at_least = [0] * (h + 1)
    for v, k in enumerate(host.degrees):
        at_least[k] |= 1 << v
    for k in range(h - 1, -1, -1):
        at_least[k] |= at_least[k + 1]
    base = [at_least[k] for k in pattern.degrees]
    if host_coloring is not None:
        by_color: dict[int, int] = {}
        for v, c in enumerate(host_coloring):
            by_color[c] = by_color.get(c, 0) | 1 << v
        base = [mask & by_color.get(c, 0) for mask, c in zip(base, pattern_coloring)]
    # non_rows[v]: the host vertices other than v that v is not adjacent to
    non_rows = [full ^ row ^ (1 << v) for v, row in enumerate(hrows)]
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
            return tuple(mapping)
        depth += 1
        prow = prows[depth]
        mask = base[depth]
        for j in range(depth):
            mask &= hrows[mapping[j]] if prow >> j & 1 else non_rows[mapping[j]]
        left[depth] = mask
    return None
