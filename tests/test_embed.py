"""Induced-subgraph search against a brute-force permutation oracle, and
against the vertex-by-vertex scan it replaced; the whole-list scan against
a loop of single-pattern searches; the degree-window and count filters
where they cut hardest: three colors, and hosts no larger than the pattern."""

from itertools import combinations, permutations

from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit.catalogs import load_catalog
import pytest

from threshkit import embed
from threshkit.classes import BY_CATALOG, ROWS
from threshkit.embed import PatternList, find_first_embedding, find_induced_embedding
from threshkit.enumeration import EnumerationConfig, all_colored_graphs, all_graphs
from threshkit.graphs import ColoredGraph, Graph
from threshkit.named import complete_graph, cycle_graph, empty_graph, path_graph
from threshkit.obstructions import _catalog_patterns

from strategies import colored_graphs, graphs


def oracle_find_induced_embedding(host, pattern, host_coloring=None, pattern_coloring=None):
    """The earlier search: at each depth, test every host vertex in turn for
    being unused, of large enough degree, of the right color, and adjacent
    to exactly the images of the earlier pattern neighbours."""
    p, h = pattern.n, host.n
    if p > h:
        return None
    hdeg = host.degrees
    pdeg = pattern.degrees
    mapping = [0] * p
    used = 0
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


def _catalog_graphs():
    """Every catalog pattern, uncolored."""
    return [e.graph for family in BY_CATALOG for e in load_catalog(family).entries]


def _colored_catalog_graphs():
    return [e.obstruction for e in load_catalog("partitioned2t").entries]


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


def test_equals_oracle_on_every_small_host():
    patterns = _catalog_graphs()
    patterns += [g for n in range(1, 5) for g in all_graphs(EnumerationConfig(n))]
    for n in range(1, 7):
        for host in all_graphs(EnumerationConfig(n)):
            for pattern in patterns:
                assert find_induced_embedding(host, pattern) == oracle_find_induced_embedding(
                    host, pattern
                )


def test_colored_equals_oracle_on_every_small_host():
    patterns = _colored_catalog_graphs()
    patterns += [cg for n in range(1, 4) for cg in all_colored_graphs(n)]
    for n in range(1, 6):
        for host in all_colored_graphs(n):
            for pattern in patterns:
                args = (host.graph, pattern.graph, host.colors, pattern.colors)
                assert find_induced_embedding(*args) == oracle_find_induced_embedding(*args)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=8, max_n=14), graphs(max_n=6), st.randoms(use_true_random=False))
def test_equals_oracle_on_larger_hosts(host, drawn, rnd):
    for pattern in _catalog_graphs() + [drawn]:
        assert find_induced_embedding(host, pattern) == oracle_find_induced_embedding(host, pattern)
    host_colors = tuple(rnd.randrange(2) for _ in range(host.n))
    for pattern in _colored_catalog_graphs() + [ColoredGraph(drawn, (0,) * drawn.n)]:
        args = (host, pattern.graph, host_colors, pattern.colors)
        assert find_induced_embedding(*args) == oracle_find_induced_embedding(*args)


# the pattern lists of the five uncolored FIS scans
UNCOLORED_SCANS = [_catalog_patterns(family) for family in
                   sorted({row.catalog for row in ROWS if row.fis is not None and not row.colored})]


def oracle_first_embedding(host, patterns, host_coloring=None):
    """The scan as a loop of single-pattern searches, each building its own
    host tables and searching whatever the candidate masks hold."""
    for name, pattern, colors in patterns:
        embedding = find_induced_embedding(host, pattern, host_coloring, colors)
        if embedding is not None:
            return name, embedding
    return None


def test_scan_equals_pattern_loop_on_every_small_host():
    for n in range(1, 8):
        for host in all_graphs(EnumerationConfig(n)):
            for patterns in UNCOLORED_SCANS:
                assert find_first_embedding(host, patterns) == oracle_first_embedding(host, patterns)


def test_colored_scan_equals_pattern_loop_on_every_small_host():
    patterns = _catalog_patterns("partitioned2t")
    for n in range(1, 7):
        for host in all_colored_graphs(n):
            assert find_first_embedding(host.graph, patterns, host.colors) == oracle_first_embedding(
                host.graph, patterns, host.colors
            )


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=8, max_n=14), st.randoms(use_true_random=False))
def test_scan_equals_pattern_loop_on_larger_hosts(host, rnd):
    for patterns in UNCOLORED_SCANS:
        assert find_first_embedding(host, patterns) == oracle_first_embedding(host, patterns)
    host_colors = tuple(rnd.randrange(2) for _ in range(host.n))
    patterns = _catalog_patterns("partitioned2t")
    assert find_first_embedding(host, patterns, host_colors) == oracle_first_embedding(
        host, patterns, host_colors
    )


def test_scan_skips_patterns_that_cannot_embed(monkeypatch):
    searched = []
    search = embed._search
    monkeypatch.setattr(embed, "_search", lambda *args: searched.append(args[2]) or search(*args))
    # the claw needs a vertex of degree 3 and P2 a white vertex: neither is searched
    host = ColoredGraph(path_graph(4), (0, 0, 0, 0))
    patterns = PatternList([
        ("claw", Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), (0, 0, 0, 0)),
        ("bw", path_graph(2), (0, 1)),
        ("p3", path_graph(3), (0, 0, 0)),
    ])
    assert find_first_embedding(host.graph, patterns, host.colors) == ("p3", (0, 1, 2))
    assert searched == [path_graph(3).rows]


def test_scan_requires_colorings_on_both_sides():
    with pytest.raises(ValueError):
        find_first_embedding(path_graph(3), PatternList([("p2", path_graph(2), (0, 0))]))
    with pytest.raises(ValueError):
        find_first_embedding(path_graph(3), PatternList([("p2", path_graph(2), None)]), (0, 0, 0))
    with pytest.raises(ValueError):
        find_induced_embedding(path_graph(3), path_graph(2), (0, 0, 0))


@st.composite
def same_size_pairs(draw, max_n=6, k=3):
    """A k-colored host and pattern on the same number of vertices."""
    n = draw(st.integers(1, max_n))
    return draw(colored_graphs(n, n, k)), draw(colored_graphs(n, n, k))


@settings(max_examples=200, deadline=None)
@given(colored_graphs(max_n=7, k=3), colored_graphs(max_n=4, k=3))
def test_three_colored_equals_oracle(host, pattern):
    args = (host.graph, pattern.graph, host.colors, pattern.colors)
    assert find_induced_embedding(*args) == oracle_find_induced_embedding(*args)


@settings(max_examples=200, deadline=None)
@given(same_size_pairs())
def test_three_colored_equals_oracle_with_no_slack(pair):
    host, pattern = pair
    args = (host.graph, pattern.graph, host.colors, pattern.colors)
    assert find_induced_embedding(*args) == oracle_find_induced_embedding(*args)


@settings(max_examples=60, deadline=None)
@given(colored_graphs(min_n=5, max_n=9, k=3),
       st.lists(colored_graphs(max_n=5, k=3), min_size=1, max_size=6))
def test_three_colored_scan_equals_pattern_loop(host, drawn):
    patterns = PatternList((str(i), cg.graph, cg.colors) for i, cg in enumerate(drawn))
    assert find_first_embedding(host.graph, patterns, host.colors) == oracle_first_embedding(
        host.graph, patterns, host.colors
    )


def test_equals_oracle_on_every_same_size_host():
    for n in range(1, 6):
        level = all_graphs(EnumerationConfig(n))
        for host in level:
            for pattern in level:
                assert find_induced_embedding(host, pattern) == oracle_find_induced_embedding(
                    host, pattern
                )


def test_colored_equals_oracle_on_every_same_size_host():
    for n in range(1, 5):
        level = all_colored_graphs(n)
        for host in level:
            for pattern in level:
                args = (host.graph, pattern.graph, host.colors, pattern.colors)
                assert find_induced_embedding(*args) == oracle_find_induced_embedding(*args)


def test_scan_skips_patterns_by_counts_and_degree_window(monkeypatch):
    searched = []
    search = embed._search
    monkeypatch.setattr(embed, "_search", lambda *args: searched.append(args[2]) or search(*args))
    # P4 has 3 edges, 3 non-edges and degrees 1, 2, 2, 1. K4 minus an edge
    # has 5 edges, 4K1 has 6 non-edges, and the isolated vertex of K3+K1
    # needs an image of degree 0 in a host of its own size
    k3_k1 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    patterns = PatternList([
        ("k4-e", Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), None),
        ("4k1", empty_graph(4), None),
        ("k3+k1", k3_k1, None),
        ("p4", path_graph(4), None),
    ])
    assert find_first_embedding(path_graph(4), patterns) == ("p4", (0, 1, 2, 3))
    assert searched == [path_graph(4).rows]
    # every vertex of the host has each color, but only one has color 1
    searched.clear()
    colored = PatternList([("11", path_graph(2), (1, 1)), ("01", path_graph(2), (0, 1))])
    assert find_first_embedding(path_graph(3), colored, (0, 1, 0)) == ("01", (0, 1))
    assert searched == [path_graph(2).rows]


def test_pattern_list_is_its_patterns():
    plain = [(e.name, e.graph, None) for e in load_catalog("switch_threshold").entries]
    patterns = PatternList(plain)
    assert patterns == tuple(plain) and list(patterns) == plain
    assert len(patterns.constants) == len(plain)
    for host in all_graphs(EnumerationConfig(6)):
        assert find_first_embedding(host, patterns) == oracle_first_embedding(host, plain)
