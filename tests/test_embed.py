"""Induced-subgraph search against a brute-force permutation oracle."""

from itertools import combinations, permutations

from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit.embed import find_induced_embedding
from threshkit.graphs import ColoredGraph
from threshkit.named import complete_graph, cycle_graph, empty_graph, path_graph

from strategies import colored_graphs, graphs


def brute_embedding_exists(host, pattern):
    for subset in combinations(range(host.n), pattern.n):
        for image in permutations(subset):
            if all(
                host.has_edge(image[i], image[j]) == pattern.has_edge(i, j)
                for i in range(pattern.n)
                for j in range(i + 1, pattern.n)
            ):
                return True
    return False


def embedding_is_induced(host, pattern, embedding):
    if len(set(embedding)) != pattern.n:
        return False
    return all(
        host.has_edge(embedding[i], embedding[j]) == pattern.has_edge(i, j)
        for i in range(pattern.n)
        for j in range(i + 1, pattern.n)
    )


def test_known_embeddings():
    assert find_induced_embedding(cycle_graph(5), path_graph(4)) is not None
    assert find_induced_embedding(complete_graph(4), path_graph(3)) is None
    assert find_induced_embedding(path_graph(4), path_graph(4)) is not None
    assert find_induced_embedding(path_graph(3), path_graph(4)) is None
    assert find_induced_embedding(complete_graph(5), complete_graph(3)) is not None
    assert find_induced_embedding(complete_graph(5), empty_graph(2)) is None


@settings(max_examples=150)
@given(graphs(max_n=6), graphs(max_n=4))
def test_matches_brute_force_and_is_induced(host, pattern):
    embedding = find_induced_embedding(host, pattern)
    assert (embedding is not None) == brute_embedding_exists(host, pattern)
    if embedding is not None:
        assert embedding_is_induced(host, pattern, embedding)


@settings(max_examples=100)
@given(colored_graphs(max_n=6), colored_graphs(max_n=3))
def test_colored_embedding_respects_colors(host, pattern):
    embedding = find_induced_embedding(host.graph, pattern.graph, host.colors, pattern.colors)
    if embedding is not None:
        assert embedding_is_induced(host.graph, pattern.graph, embedding)
        for i, v in enumerate(embedding):
            assert host.colors[v] == pattern.colors[i]


def test_colored_embedding_blocks_on_color():
    host = ColoredGraph(path_graph(3), (0, 0, 0))
    pattern = ColoredGraph(path_graph(2), (0, 1))
    assert find_induced_embedding(host.graph, pattern.graph, host.colors, pattern.colors) is None
    recolored = ColoredGraph(path_graph(3), (0, 1, 0))
    assert (
        find_induced_embedding(recolored.graph, pattern.graph, recolored.colors, pattern.colors)
        is not None
    )
