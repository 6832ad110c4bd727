"""The cell-based canonical search against the dict-based one it replaced.

oracle_min_order is the earlier search, kept here as an oracle: each level
re-sorts a {vertex: profile} dict of every live state and drops twins by
comparing rows pairwise. Both compute the same definition (the minimal
graph6 string, colors first), so the canonical graphs must be equal.
"""

from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit.canonical import canonical_colored_graph, canonical_graph
from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graphs import ColoredGraph, Graph
from threshkit.limits import Limits
from threshkit.named import cycle_graph, matching

from oracles import raw_extensions
from strategies import graphs


def oracle_min_order(n, rows, colors):
    if n == 1:
        return (0,)
    want = sorted(colors) if colors is not None else [0] * n
    states = [((), {v: 0 for v in range(n)})]
    for level in range(n):
        target = want[level]
        picks = []
        best = None
        for si, (_, prof) in enumerate(states):
            ranked = sorted(
                (p, u) for u, p in prof.items() if colors is None or colors[u] == target
            )
            kept = []
            for p, u in ranked:
                if best is not None and p > best:
                    break
                twin = False
                for p2, u2 in kept:
                    if p2 == p and rows[u] & ~(1 << u2) == rows[u2] & ~(1 << u):
                        twin = True
                        break
                if twin:
                    continue
                kept.append((p, u))
                picks.append((p, si, u))
                if best is None or p < best:
                    best = p
        merged = {}
        for p, si, u in picks:
            if p != best:
                continue
            order, prof = states[si]
            nprof = {v: (q << 1) | (rows[v] >> u & 1) for v, q in prof.items() if v != u}
            key = tuple(sorted(nprof.items()))
            if key not in merged:
                merged[key] = (order + (u,), nprof)
        states = list(merged.values())
    return states[0][0]


def oracle_graph(g: Graph) -> Graph:
    return g.relabel(oracle_min_order(g.n, g.rows, None))


def oracle_colored_graph(cg: ColoredGraph) -> ColoredGraph:
    order = oracle_min_order(cg.n, cg.graph.rows, cg.colors)
    return ColoredGraph(cg.graph.relabel(order), tuple(cg.colors[v] for v in order))


@pytest.mark.parametrize("n", range(1, 8))
def test_matches_oracle_on_every_extension(n):
    for g in raw_extensions(n):
        assert canonical_graph(g) == oracle_graph(g)


@pytest.mark.parametrize("n", range(1, 7))
def test_colored_matches_oracle_on_every_two_coloring(n):
    for g in all_graphs(EnumerationConfig(n)):
        for colors in product((0, 1), repeat=n):
            cg = ColoredGraph(g, colors)
            assert canonical_colored_graph(cg) == oracle_colored_graph(cg)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=8, max_n=10), st.randoms(use_true_random=False), st.integers(1, 3))
def test_matches_oracle_on_larger_graphs(g, rnd, k):
    order = list(range(g.n))
    rnd.shuffle(order)
    relabeled = g.relabel(order)
    expected = oracle_graph(g)
    assert canonical_graph(g) == expected
    assert canonical_graph(relabeled) == expected
    colors = tuple(rnd.randrange(k) for _ in range(g.n))
    cg = ColoredGraph(relabeled, colors)
    assert canonical_colored_graph(cg) == oracle_colored_graph(cg)


@pytest.mark.parametrize("g", [cycle_graph(14), matching(8)], ids=["C14", "8K2"])
def test_matches_oracle_on_symmetric_graphs(g):
    raised = Limits(canonical_max_n=g.n)
    assert canonical_graph(g, raised) == oracle_graph(g)
