"""Induced-subgraph search against a brute-force permutation oracle, and
against the vertex-by-vertex scan it replaced; the symmetry-broken search
against the unbroken one, and the automorphisms it breaks against
networkx; the whole-list scan against a loop of single-pattern searches;
the degree-window and count filters where they cut hardest: three colors,
and hosts no larger than the pattern."""

from itertools import combinations, permutations

from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit.catalogs import load_catalog
import pytest

from threshkit import embed
from threshkit.classes import BY_CATALOG, ROWS
from threshkit.embed import PatternList, find_first_embedding
from threshkit.enumeration import EnumerationConfig, all_colored_graphs, all_graphs
from threshkit.graphs import ColoredGraph, Graph
from threshkit.kthreshold import GENERAL2, THRESHOLD
from threshkit.named import complete_graph, cycle_graph, empty_graph, matching, path_graph
from threshkit.obstructions import _catalog_patterns

from strategies import (
    cographs_with_a_flip,
    colored_graphs,
    graphs,
    random_member,
    switched_threshold_graphs,
)


def oracle_embedding(host, pattern, host_coloring=None, pattern_coloring=None):
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


def single(pattern, colors=None):
    """The scan list of one pattern, colored when colors are given."""
    return PatternList([(None, pattern, colors)])


def embedding(host, patterns, host_coloring=None):
    """The first embedding of a one-pattern list in host, or None."""
    hit = find_first_embedding(host, patterns, host_coloring)
    return None if hit is None else hit[1]


def oracle_colored(host, pattern):
    """oracle_embedding of one colored graph in another."""
    return oracle_embedding(host.graph, pattern.graph, host.colors, pattern.colors)


# every catalog pattern, uncolored, and the colored ones, each with its
# one-pattern list, built once per pattern
CATALOG = [(e.graph, single(e.graph))
           for family in BY_CATALOG for e in load_catalog(family).entries]
COLORED_CATALOG = [(e.obstruction, single(e.graph, e.coloring))
                   for e in load_catalog("partitioned2t").entries]


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
    p3, p4 = single(path_graph(3)), single(path_graph(4))
    assert embedding(cycle_graph(5), p4) is not None
    assert embedding(complete_graph(4), p3) is None
    assert embedding(path_graph(4), p4) is not None
    assert embedding(path_graph(3), p4) is None
    assert embedding(complete_graph(5), single(complete_graph(3))) is not None
    assert embedding(complete_graph(5), single(empty_graph(2))) is None


@settings(max_examples=150)
@given(graphs(max_n=6), graphs(max_n=4))
def test_matches_brute_force_and_is_induced(host, pattern):
    found = embedding(host, single(pattern))
    assert (found is not None) == brute_embedding_exists(host, pattern)
    if found is not None:
        assert embedding_is_induced(host, pattern, found)


@settings(max_examples=100)
@given(colored_graphs(max_n=6), colored_graphs(max_n=3))
def test_colored_embedding_respects_colors(host, pattern):
    found = embedding(host.graph, single(pattern.graph, pattern.colors), host.colors)
    if found is not None:
        assert embedding_is_induced(host.graph, pattern.graph, found)
        for i, v in enumerate(found):
            assert host.colors[v] == pattern.colors[i]


def test_colored_embedding_blocks_on_color():
    pattern = single(path_graph(2), (0, 1))
    assert embedding(path_graph(3), pattern, (0, 0, 0)) is None
    assert embedding(path_graph(3), pattern, (0, 1, 0)) is not None


def test_equals_oracle_on_every_small_host():
    cases = CATALOG + [(g, single(g)) for n in range(1, 5)
                       for g in all_graphs(EnumerationConfig(n))]
    for n in range(1, 7):
        for host in all_graphs(EnumerationConfig(n)):
            for pattern, patterns in cases:
                assert embedding(host, patterns) == oracle_embedding(host, pattern)


def test_colored_equals_oracle_on_every_small_host():
    cases = COLORED_CATALOG + [(cg, single(cg.graph, cg.colors))
                               for n in range(1, 4) for cg in all_colored_graphs(n)]
    for n in range(1, 6):
        for host in all_colored_graphs(n):
            for pattern, patterns in cases:
                assert embedding(host.graph, patterns, host.colors) == oracle_colored(host, pattern)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=8, max_n=14), graphs(max_n=6), st.randoms(use_true_random=False))
def test_equals_oracle_on_larger_hosts(host, drawn, rnd):
    for pattern, patterns in CATALOG + [(drawn, single(drawn))]:
        assert embedding(host, patterns) == oracle_embedding(host, pattern)
    host_colors = tuple(rnd.randrange(2) for _ in range(host.n))
    plain = ColoredGraph(drawn, (0,) * drawn.n)
    for pattern, patterns in COLORED_CATALOG + [(plain, single(drawn, plain.colors))]:
        assert embedding(host, patterns, host_colors) == oracle_embedding(
            host, pattern.graph, host_colors, pattern.colors)


# the pattern lists of the five uncolored FIS scans
UNCOLORED_SCANS = [_catalog_patterns(family) for family in
                   sorted({row.catalog for row in ROWS if row.fis is not None and not row.colored})]


def oracle_first_embedding(host, patterns, host_coloring=None):
    """The scan as a loop of single-pattern searches, each building its own
    host tables and searching whatever the candidate masks hold."""
    for name, pattern, colors in patterns:
        constants = embed._pattern_constants(name, pattern, colors, (-1,) * pattern.n)
        hit = embed._first_embedding(host, (constants,), host_coloring)
        if hit is not None:
            return hit
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
    # the claw needs a vertex of degree 3 and P2 a white vertex: neither is
    # searched. The list is built before counting, since its automorphisms
    # come from searches too
    host = ColoredGraph(path_graph(4), (0, 0, 0, 0))
    patterns = PatternList([
        ("claw", Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), (0, 0, 0, 0)),
        ("bw", path_graph(2), (0, 1)),
        ("p3", path_graph(3), (0, 0, 0)),
    ])
    searched = []
    search = embed._search
    monkeypatch.setattr(embed, "_search", lambda *args: searched.append(args[2]) or search(*args))
    assert find_first_embedding(host.graph, patterns, host.colors) == ("p3", (0, 1, 2))
    assert searched == [path_graph(3).rows]


def test_scan_requires_colorings_on_both_sides():
    with pytest.raises(ValueError):
        find_first_embedding(path_graph(3), PatternList([("p2", path_graph(2), (0, 0))]))
    with pytest.raises(ValueError):
        find_first_embedding(path_graph(3), PatternList([("p2", path_graph(2), None)]), (0, 0, 0))


@st.composite
def same_size_pairs(draw, max_n=6, k=3):
    """A k-colored host and pattern on the same number of vertices."""
    n = draw(st.integers(1, max_n))
    return draw(colored_graphs(n, n, k)), draw(colored_graphs(n, n, k))


@settings(max_examples=200, deadline=None)
@given(colored_graphs(max_n=7, k=3), colored_graphs(max_n=4, k=3))
def test_three_colored_equals_oracle(host, pattern):
    patterns = single(pattern.graph, pattern.colors)
    assert embedding(host.graph, patterns, host.colors) == oracle_colored(host, pattern)


@settings(max_examples=200, deadline=None)
@given(same_size_pairs())
def test_three_colored_equals_oracle_with_no_slack(pair):
    host, pattern = pair
    patterns = single(pattern.graph, pattern.colors)
    assert embedding(host.graph, patterns, host.colors) == oracle_colored(host, pattern)


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
        cases = [(g, single(g)) for g in level]
        for host in level:
            for pattern, patterns in cases:
                assert embedding(host, patterns) == oracle_embedding(host, pattern)


def test_colored_equals_oracle_on_every_same_size_host():
    for n in range(1, 5):
        level = all_colored_graphs(n)
        cases = [(cg, single(cg.graph, cg.colors)) for cg in level]
        for host in level:
            for pattern, patterns in cases:
                assert embedding(host.graph, patterns, host.colors) == oracle_colored(host, pattern)


def test_scan_skips_patterns_by_counts_and_degree_window(monkeypatch):
    # P4 has 3 edges, 3 non-edges and degrees 1, 2, 2, 1. K4 minus an edge
    # has 5 edges, 4K1 has 6 non-edges, and the isolated vertex of K3+K1
    # needs an image of degree 0 in a host of its own size. The lists are
    # built before counting, since their automorphisms come from searches too
    k3_k1 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    patterns = PatternList([
        ("k4-e", Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), None),
        ("4k1", empty_graph(4), None),
        ("k3+k1", k3_k1, None),
        ("p4", path_graph(4), None),
    ])
    colored = PatternList([("11", path_graph(2), (1, 1)), ("01", path_graph(2), (0, 1))])
    searched = []
    search = embed._search
    monkeypatch.setattr(embed, "_search", lambda *args: searched.append(args[2]) or search(*args))
    assert find_first_embedding(path_graph(4), patterns) == ("p4", (0, 1, 2, 3))
    assert searched == [path_graph(4).rows]
    # every vertex of the host has each color, but only one has color 1
    searched.clear()
    assert find_first_embedding(path_graph(3), colored, (0, 1, 0)) == ("01", (0, 1))
    assert searched == [path_graph(2).rows]


def test_pattern_list_is_its_patterns():
    plain = [(e.name, e.graph, None) for e in load_catalog("switch_threshold").entries]
    patterns = PatternList(plain)
    assert patterns == tuple(plain) and list(patterns) == plain
    assert len(patterns.constants) == len(plain)
    for host in all_graphs(EnumerationConfig(6)):
        assert find_first_embedding(host, patterns) == oracle_first_embedding(host, plain)


def oracle_search(hrows, non_rows, prows, base):
    """The search without symmetry-breaking conditions: it reaches every
    embedding of each automorphism class and returns the first."""
    p = len(prows)
    mapping = [0] * p
    left = [0] * p
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


SCAN_FAMILIES = sorted({row.catalog for row in ROWS if row.fis is not None})
# one single-pattern list per pattern of the uncolored scans and of the colored one
SINGLES = [PatternList([pattern]) for family in SCAN_FAMILIES if family != "partitioned2t"
           for pattern in _catalog_patterns(family)]
COLORED_SINGLES = [PatternList([pattern]) for pattern in _catalog_patterns("partitioned2t")]


def _first_embeddings(hosts, singles, search=None):
    """Each host's first embedding of each single-pattern list, with
    search, if given, in place of the embedding search."""
    with pytest.MonkeyPatch.context() as patch:
        if search is not None:
            patch.setattr(embed, "_search", search)
        return [find_first_embedding(host, single, coloring)
                for host, coloring in hosts for single in singles]


def _unbroken(hrows, non_rows, prows, base, after):
    return oracle_search(hrows, non_rows, prows, base)


def _assert_unbroken_agrees(hosts, singles):
    assert _first_embeddings(hosts, singles) == _first_embeddings(hosts, singles, _unbroken)


def test_scan_lists_are_the_six_catalogs():
    assert SCAN_FAMILIES == ["good", "partitioned2t", "special2t", "switch_cograph",
                             "switch_threshold", "threshold"]
    assert (len(SINGLES), len(COLORED_SINGLES)) == (36, 25)


def test_symmetry_breaking_keeps_every_first_embedding_on_small_hosts():
    hosts = [(g, None) for n in range(1, 8) for g in all_graphs(EnumerationConfig(n))]
    _assert_unbroken_agrees(hosts, SINGLES)
    colored = [(cg.graph, cg.colors) for n in range(1, 7) for cg in all_colored_graphs(n)]
    _assert_unbroken_agrees(colored, COLORED_SINGLES)


@st.composite
def large_hosts(draw):
    """A host on 8..30 vertices in which the symmetric patterns mostly do
    not embed, so the searches run to the end: a threshold graph, a
    switched threshold graph or a cograph, or else G(n, 1/2); or a built
    member of the partitioned class with its coloring."""
    n = draw(st.integers(8, 30))
    kind = draw(st.sampled_from(["threshold", "switched", "cograph", "random", "partitioned"]))
    rnd = draw(st.randoms(use_true_random=False))
    if kind == "threshold":
        g = random_member(rnd, THRESHOLD, n).graph
        return g.relabel(draw(st.permutations(range(n)))), None
    if kind == "switched":
        return draw(switched_threshold_graphs(n, n)), None
    if kind == "cograph":
        return draw(cographs_with_a_flip(n, n)), None
    if kind == "random":
        return draw(graphs(n, n)), None
    cg = random_member(rnd, GENERAL2, n)
    order = draw(st.permutations(range(n)))
    return cg.graph.relabel(order), tuple(cg.colors[order.index(v)] for v in range(n))


@settings(max_examples=40, deadline=None)
@given(large_hosts())
def test_symmetry_breaking_keeps_every_first_embedding_on_large_hosts(host):
    _assert_unbroken_agrees([host], SINGLES if host[1] is None else COLORED_SINGLES)


def _networkx_automorphisms(pattern, colors):
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    g = nx.Graph()
    g.add_nodes_from((v, {"color": None if colors is None else colors[v]}) for v in range(pattern.n))
    g.add_edges_from(pattern.edges())
    same = lambda a, b: a["color"] == b["color"]
    return sum(1 for _ in GraphMatcher(g, g, node_match=same).isomorphisms_iter())


# automorphism counts of each scan list's patterns, in scan order
AUTOMORPHISMS = {
    "good": (2, 16, 8, 48, 48),
    "partitioned2t": (8, 8, 2, 8, 8, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 4, 1, 1, 1, 1, 2, 2, 4, 1, 1),
    "special2t": (8, 10, 2, 2, 4, 6, 48, 8),
    "switch_cograph": (2, 10, 2, 2),
    "switch_threshold": (2, 10, 2, 2, 48, 16, 12, 8, 16, 4, 8, 4, 8, 12, 48, 8),
    "threshold": (8, 8, 2),
}


def test_automorphisms_are_the_networkx_isomorphisms():
    """A work gate: each scan pattern's automorphisms, color-preserving for
    colored ones, are as many as networkx finds, and pinned by family."""
    counts = {}
    for family in SCAN_FAMILIES:
        counts[family] = []
        for name, pattern, colors in _catalog_patterns(family):
            found = embed._automorphisms(pattern.rows, pattern.degrees, colors)
            assert len(set(found)) == len(found) == _networkx_automorphisms(pattern, colors), name
            assert found[0] == tuple(range(pattern.n)) and found == sorted(found)
            counts[family].append(len(found))
    assert {family: tuple(c) for family, c in counts.items()} == AUTOMORPHISMS


def test_conditions_follow_the_stabilizer_chain():
    # 3K2 = 01, 23, 45: 0 is below all, 2 below 3, 4, 5, and 4 below 5;
    # 1 and 3 are fixed once 0 and 2 are
    three_k2 = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    autos = embed._automorphisms(three_k2.rows, three_k2.degrees, None)
    assert len(autos) == 48
    assert embed._conditions(autos, 6) == (-1, 0, 0, 2, 2, 4)
    # C4 = 0123: 0 below all, then 1 below 3
    c4 = cycle_graph(4)
    assert embed._conditions(embed._automorphisms(c4.rows, c4.degrees, None), 4) == (-1, 0, 0, 1)
    # colors cut the group: P4 colored 0110 keeps its reversal, 0101 does not
    p4 = path_graph(4)
    assert embed._conditions(embed._automorphisms(p4.rows, p4.degrees, (0, 1, 1, 0)), 4) == (
        -1, -1, -1, 0)
    assert embed._conditions(embed._automorphisms(p4.rows, p4.degrees, (0, 1, 0, 1)), 4) == (
        -1, -1, -1, -1)


def _counting_searches(monkeypatch):
    calls = []
    search = embed._search
    monkeypatch.setattr(embed, "_search", lambda *args: calls.append(1) or search(*args))
    return calls


def test_one_pattern_search_makes_one_search_call(monkeypatch):
    """A one-pattern list searches a host once: the automorphisms behind
    its symmetry-breaking conditions, found by searches of their own, come
    with the list, so the list is built before counting."""
    three_k2, two_k2 = single(matching(3)), single(matching(2))
    calls = _counting_searches(monkeypatch)
    assert embedding(path_graph(8), three_k2) == (0, 1, 3, 4, 6, 7)
    assert len(calls) == 1
    calls.clear()
    assert embedding(cycle_graph(5), two_k2) is None
    assert len(calls) == 1


def test_one_pattern_search_equals_oracle_with_at_most_one_search_call(monkeypatch):
    calls = _counting_searches(monkeypatch)
    for n in range(1, 7):
        for host in all_graphs(EnumerationConfig(n)):
            for pattern, patterns in CATALOG:
                calls.clear()
                assert embedding(host, patterns) == oracle_embedding(host, pattern)
                assert len(calls) <= 1
    for n in range(1, 6):
        for host in all_colored_graphs(n):
            for pattern, patterns in COLORED_CATALOG:
                calls.clear()
                assert embedding(host.graph, patterns, host.colors) == oracle_colored(host, pattern)
                assert len(calls) <= 1
