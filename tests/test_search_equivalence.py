"""The polynomial coloring and switch-set searches against their brute-force oracles.

Each fast search must return exactly what the oracle returns (the same
coloring, build sequence, switch set and target), so certificates printed
by the CLI do not depend on which search produced them.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graphs import ColoredGraph, Graph
from threshkit.kthreshold import (
    EXTENDED,
    RESTRICTED,
    SPECIAL,
    general_dialect,
    is_extended,
    is_k_threshold,
    is_restricted,
    is_special,
)
from threshkit.sequences import ADD, JOIN_ALL, BuildSequence, Step, evaluate
from threshkit.switching import (
    has_cograph_switch,
    is_cograph,
    is_switch_cograph,
    switch,
    switch_to_threshold,
)

from oracles import is_threshold_graph, oracle_pruned_coloring_search, oracle_switch_scan
from strategies import graph_from_mask

# name -> (fast search, oracle)
SEARCHES = {
    "special": (is_special, lambda g: oracle_pruned_coloring_search(g, SPECIAL)),
    "restricted": (is_restricted, lambda g: oracle_pruned_coloring_search(g, RESTRICTED)),
    "extended": (is_extended, lambda g: oracle_pruned_coloring_search(g, EXTENDED)),
    "kthreshold2": (lambda g: is_k_threshold(g, 2),
                    lambda g: oracle_pruned_coloring_search(g, general_dialect(2))),
    "switch_to_threshold": (switch_to_threshold,
                            lambda g: oracle_switch_scan(g, (is_cograph, is_threshold_graph))[1]),
    "has_cograph_switch": (has_cograph_switch,
                           lambda g: oracle_switch_scan(g, (is_cograph, is_threshold_graph))[0]),
}


def _reversed(g: Graph) -> Graph:
    return g.relabel(tuple(reversed(range(g.n))))


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_fast_search_equals_oracle_exhaustively(name):
    fast, oracle = SEARCHES[name]
    for n in range(1, 8):
        for canonical in all_graphs(EnumerationConfig(n)):
            for g in (canonical, _reversed(canonical)):
                assert fast(g) == oracle(g), g


def _built(rnd: random.Random, n: int, k: int, ops) -> Graph:
    steps = [Step(rnd.randrange(k), ADD)]
    steps += [Step(rnd.randrange(k), rnd.choice(ops)) for _ in range(n - 1)]
    return evaluate(BuildSequence(k, tuple(steps))).graph


def _sample(rnd: random.Random, n: int, source: str) -> Graph:
    """A graph on n vertices; built members make the oracles find certificates."""
    if source == "random":
        return graph_from_mask(n, rnd.getrandbits(n * (n - 1) // 2))
    if source == "threshold-switch":
        g = _built(rnd, n, 1, (ADD, JOIN_ALL))
        return switch(g, rnd.getrandbits(n) & g.full_mask)
    dialect = {"special": SPECIAL, "restricted": RESTRICTED,
               "extended": EXTENDED, "general": general_dialect(2)}[source]
    return _built(rnd, n, 2, dialect.ops)


def _shuffled(rnd: random.Random, g: Graph) -> Graph:
    order = list(range(g.n))
    rnd.shuffle(order)
    return g.relabel(order)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.randoms(use_true_random=False),
    st.integers(8, 14),
    st.sampled_from(("random", "threshold-switch", "special", "restricted", "extended", "general")),
)
def test_fast_search_equals_oracle_on_larger_graphs(rnd, n, source):
    g = _shuffled(rnd, _sample(rnd, n, source))
    for name, (fast, oracle) in SEARCHES.items():
        assert fast(g) == oracle(g), name


def test_fast_searches_answer_at_twenty_vertices():
    rnd = random.Random(20)
    graphs = [_shuffled(rnd, _sample(rnd, 20, source))
              for source in ("random", "threshold-switch", "special", "restricted", "extended", "general")]
    for g in graphs:
        for search in (is_special, is_restricted, is_extended, lambda h: is_k_threshold(h, 2)):
            res = search(g)
            if res is not None:
                coloring, seq = res
                assert evaluate(seq) == ColoredGraph(g, coloring)
        cert = switch_to_threshold(g)
        if cert is not None:
            assert switch(g, cert.set) == cert.target and is_threshold_graph(cert.target)
        assert isinstance(is_switch_cograph(g), bool)
    # the generated members are accepted by their own class
    assert is_special(graphs[2]) is not None
    assert is_restricted(graphs[3]) is not None
    assert switch_to_threshold(graphs[1]) is not None
    assert is_extended(graphs[4]) is not None
    assert is_k_threshold(graphs[5], 2) is not None
    # a random graph this size is no switch cograph: no certificate search runs
    assert has_cograph_switch(graphs[0]) is None
