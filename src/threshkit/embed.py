"""Induced-subgraph embedding search, optionally color-preserving."""

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
    hdeg = host.degrees
    pdeg = pattern.degrees
    mapping = [0] * p
    used = 0
    # per-depth host masks implied by the pattern adjacency so far
    need = [0] * p
    forbid = [0] * p
    depth = 0
    cursor = [0] * p
    while True:
        if cursor[depth] == 0 and depth > 0:
            prow = pattern.rows[depth]
            na = nf = 0
            for j in range(depth):
                if prow >> j & 1:
                    na |= 1 << mapping[j]
                else:
                    nf |= 1 << mapping[j]
            need[depth] = na
            forbid[depth] = nf
        placed = False
        v = cursor[depth]
        while v < h:
            if (
                not used >> v & 1
                and hdeg[v] >= pdeg[depth]
                and (host_coloring is None or host_coloring[v] == pattern_coloring[depth])
            ):
                row = host.rows[v]
                if row & need[depth] == need[depth] and not row & forbid[depth]:
                    mapping[depth] = v
                    cursor[depth] = v + 1
                    used |= 1 << v
                    placed = True
                    break
            v += 1
        if placed:
            if depth == p - 1:
                return tuple(mapping)
            depth += 1
            cursor[depth] = 0
            continue
        cursor[depth] = 0
        depth -= 1
        if depth < 0:
            return None
        used ^= 1 << mapping[depth]
