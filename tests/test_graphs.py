"""Core graph container: masks, operations, distance-hereditary check."""

import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graphs import (
    ColoredGraph,
    Graph,
    bits,
    disjoint_union,
    is_distance_hereditary,
    join,
)
from threshkit.named import cycle_graph, gem, house, path_graph, complete_graph

from strategies import complement, cutrank_profile, distance_hereditary_oracle, graphs


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.degrees == (1, 2, 2, 1)


def test_rejects_asymmetric_rows():
    with pytest.raises(ValueError):
        Graph(2, (2, 0))


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(1, (1,))


def test_components_and_connected():
    g = disjoint_union(path_graph(3), complete_graph(2))
    comps = sorted(g.components())
    assert comps == [0b00111, 0b11000]
    assert len(g.components()) == 2
    assert len(path_graph(5).components()) == 1


def test_induced_subgraph():
    g = cycle_graph(5)
    h = g.induced(0b01011)  # vertices 0, 1, 3
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1)]  # only the 0-1 edge survives


def test_delete_vertex():
    g = path_graph(4)
    assert sorted(g.delete_vertex(1).edges()) == [(1, 2)]


@given(graphs(max_n=7))
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(graphs(max_n=7))
def test_complement_edge_counts(g):
    total = g.n * (g.n - 1) // 2
    assert g.edge_count() + complement(g).edge_count() == total


@given(graphs(max_n=6), st.randoms())
def test_relabel_is_isomorphism(g, rnd):
    order = list(range(g.n))
    rnd.shuffle(order)
    h = g.relabel(order)
    assert sorted(h.degrees) == sorted(g.degrees)
    for i, j in itertools.combinations(range(g.n), 2):
        assert h.has_edge(i, j) == g.has_edge(order[i], order[j])


def test_join_and_union_shapes():
    g = join(path_graph(2), path_graph(2))
    assert g.edge_count() == 6  # K4
    u = disjoint_union(path_graph(2), path_graph(2))
    assert u.edge_count() == 2


def test_bits_enumerates_set_positions():
    assert list(bits(0b10110)) == [1, 2, 4]


def test_colored_graph_validation():
    g = path_graph(2)
    with pytest.raises(ValueError):
        ColoredGraph(g, (0,))
    cg = ColoredGraph(g, (0, 1))
    assert cg.n == 2
    assert cg.swapped().colors == (1, 0)
    assert cg.swapped().graph == g


def test_colored_delete_vertex():
    cg = ColoredGraph(path_graph(3), (0, 1, 0))
    assert cg.delete_vertex(1).colors == (0, 0)


def test_cutrank_profile_path():
    # Prefix {0} of P4 meets one edge: rank 1. No prefix of a path in
    # endpoint-to-endpoint order can exceed rank 1.
    g = path_graph(4)
    assert cutrank_profile(g, (0, 1, 2, 3)) == 1


def test_cutrank_profile_c4():
    # Prefix {0, 1} of C4 reaches {3} and {2}: two independent rows.
    # Opposite vertices are twins, so that order stays at rank 1.
    g = cycle_graph(4)
    assert cutrank_profile(g, (0, 1, 2, 3)) == 2
    assert cutrank_profile(g, (0, 2, 1, 3)) == 1


@given(graphs(min_n=2, max_n=6), st.randoms())
def test_cutrank_matches_xor_span_oracle(g, rnd):
    """GF(2) rank equals log2 of the XOR span of the cut rows."""
    order = list(range(g.n))
    rnd.shuffle(order)
    prefix = 0
    best = 0
    for v in order[:-1]:
        prefix |= 1 << v
        rest = g.full_mask & ~prefix
        rows = [g.rows[u] & rest for u in bits(prefix)]
        span = {0}
        for row in rows:
            span |= {row ^ s for s in span}
        best = max(best, len(span).bit_length() - 1)
    assert cutrank_profile(g, order) == best


def test_distance_hereditary_known_cases():
    # The forbidden family is the house, long holes, the domino and the gem.
    assert is_distance_hereditary(path_graph(5))
    assert is_distance_hereditary(complete_graph(4))
    assert is_distance_hereditary(cycle_graph(4))
    assert not is_distance_hereditary(house())
    assert not is_distance_hereditary(cycle_graph(5))
    assert not is_distance_hereditary(cycle_graph(6))
    assert not is_distance_hereditary(gem())


@settings(max_examples=60)
@given(graphs(max_n=6))
def test_distance_hereditary_matches_definition(g):
    assert is_distance_hereditary(g) == distance_hereditary_oracle(g)


def two_pass_distance_hereditary(g: Graph) -> bool:
    """The earlier twin search, which ran an open pass and then a closed
    pass; kept as the oracle for the single pass."""
    alive = g.full_mask
    while alive.bit_count() > 1:
        victim = -1
        for v in bits(alive):
            if (g.rows[v] & alive).bit_count() <= 1:
                victim = v
                break
        if victim < 0:
            live = list(bits(alive))
            for closed in (False, True):
                for i, u in enumerate(live):
                    ru = g.rows[u] & alive
                    if closed:
                        ru |= 1 << u
                    for v in live[i + 1 :]:
                        rv = g.rows[v] & alive
                        if closed:
                            rv |= 1 << v
                        pair = (1 << u) | (1 << v)
                        if ru & ~pair == rv & ~pair:
                            victim = v
                            break
                    if victim >= 0:
                        break
                if victim >= 0:
                    break
        if victim < 0:
            return False
        alive ^= 1 << victim
    return True


def test_distance_hereditary_matches_two_pass_search_up_to_n7():
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert is_distance_hereditary(g) == two_pass_distance_hereditary(g), g


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=8, max_n=16))
def test_distance_hereditary_matches_two_pass_search_on_larger_graphs(g):
    assert is_distance_hereditary(g) == two_pass_distance_hereditary(g)
