"""Isomorph-free generation against the edge-subset baseline and the
unpruned extension products."""

import hashlib
import tracemalloc
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import threshkit.canonical as canonical
import threshkit.enumeration as enumeration
from threshkit.canonical import (
    canonical_colored_graph,
    canonical_form,
    canonical_graph,
)
from threshkit.enumeration import (
    EnumerationConfig,
    all_colored_graphs,
    all_graphs,
)
from threshkit.graph6 import encode_graph6, format_graph_line
from threshkit.graphs import ColoredGraph
from threshkit.limits import CapacityError, Limits

from oracles import baseline_graphs, raw_extensions
from strategies import colored_graphs, graph_from_mask


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(0)


def test_counts_match_baseline():
    for n in range(1, 6):
        fast = all_graphs(EnumerationConfig(n))
        slow = baseline_graphs(n)
        assert {canonical_form(g) for g in fast} == {canonical_form(g) for g in slow}


def test_small_counts():
    expected = (1, 2, 4, 11, 34, 156)
    for n, want in enumerate(expected, 1):
        assert len(all_graphs(EnumerationConfig(n))) == want


def test_streams_are_sorted_and_canonical():
    for n in range(1, 6):
        graphs = all_graphs(EnumerationConfig(n))
        forms = [canonical_form(g) for g in graphs]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)


def test_colored_enumeration_matches_brute_force():
    for n in range(1, 5):
        fast = {canonical_form(cg) for cg in all_colored_graphs(n)}
        slow = set()
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            for colors in product((0, 1), repeat=n):
                slow.add(canonical_form(ColoredGraph(g, colors)))
        assert fast == slow


def test_raw_extensions_cover_everything():
    for n in range(2, 6):
        raw = {canonical_form(g) for g in raw_extensions(n)}
        assert raw == {canonical_form(g) for g in all_graphs(EnumerationConfig(n))}


def test_enumeration_bound_enforced():
    # at the call, before any graph is read
    with pytest.raises(CapacityError):
        all_graphs(EnumerationConfig(9), Limits(enumeration_max_n=8))


def _levels():
    """Every plain level with n <= 7 and every colored level with n <= 6."""
    return ([all_graphs(EnumerationConfig(n)) for n in range(1, 8)]
            + [all_colored_graphs(n) for n in range(1, 7)])


def test_cold_levels_keep_at_most_64_bytes_per_class():
    _levels()  # fills the packing tables, which do not grow with a level
    enumeration._representatives.cache_clear()
    enumeration._colored_representatives.cache_clear()
    tracemalloc.start()
    try:
        levels = _levels()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    classes = sum(map(len, levels))
    assert classes == 1252 + 5758
    assert kept <= 64 * classes


def test_a_level_reads_alike_every_time():
    for level in _levels():
        first = list(level)
        assert list(level) == first
        assert len(level) == len(first)
        assert [level[i] for i in range(len(level))] == first
        assert level[-1] == first[-1]


def test_codes_sort_as_forms():
    for level in [*_levels(), all_graphs(EnumerationConfig(8))]:
        forms = [format_graph_line(g) for g in level]
        assert forms == sorted(set(forms))
        assert list(level.codes) == sorted(set(level.codes))
        assert [level.position(enumeration._code(g)) for g in level] == list(range(len(level)))


@given(colored_graphs(max_n=9), st.data())
def test_packing_round_trips_and_keeps_form_order(cg, data):
    n = cg.n
    assert list(enumeration._unpack(n, True, [enumeration._code(cg)])) == [cg]
    assert list(enumeration._unpack(n, False, [enumeration._code(cg.graph)])) == [cg.graph]
    other = data.draw(colored_graphs(min_n=n, max_n=n))
    for a, b in ((cg.graph, other.graph), (cg, other)):
        assert ((enumeration._code(a) < enumeration._code(b))
                == (format_graph_line(a) < format_graph_line(b)))


def _sorted_by_form(graphs, form):
    seen = {}
    for g in graphs:
        seen.setdefault(form(g), g)
    return tuple(seen[f] for f in sorted(seen))


@pytest.mark.parametrize("n", range(1, 8))
def test_pruned_extensions_equal_the_unpruned_dedup(n):
    unpruned = _sorted_by_form((canonical_graph(g) for g in raw_extensions(n)), canonical_form)
    assert tuple(all_graphs(EnumerationConfig(n))) == unpruned


@pytest.mark.parametrize("n", range(1, 7))
def test_pruned_colorings_equal_the_unpruned_product(n):
    every = (
        canonical_colored_graph(ColoredGraph(g, colors))
        for g in all_graphs(EnumerationConfig(n))
        for colors in product((0, 1), repeat=n)
    )
    assert tuple(all_colored_graphs(n)) == _sorted_by_form(every, canonical_form)


def test_cold_enumeration_labels_a_pinned_number_of_graphs(monkeypatch):
    calls = []
    labeling = canonical._min_order

    def counted(*args):
        calls.append(args[0])
        return labeling(*args)

    monkeypatch.setattr(canonical, "_min_order", counted)
    enumeration._representatives.cache_clear()
    enumeration._colored_representatives.cache_clear()
    for n in range(1, 8):
        all_graphs(EnumerationConfig(n))
    # all 2^(n-1) extensions of every class would be 11,290 labelings;
    # the 1,251 classes with 2..7 vertices need one each
    assert len(calls) == 1299
    all_graphs(EnumerationConfig(8))
    # 13,597 classes with 2..8 vertices
    assert len(calls) == 14467
    calls.clear()
    for n in range(1, 7):
        all_colored_graphs(n)
    # all 2^n colorings of every class would be 11,290 labelings; one
    # coloring per Aut-orbit labels each 2-colored class once
    assert len(calls) == sum(len(all_colored_graphs(n)) for n in range(1, 7)) == 5758


def test_eight_vertex_classes_are_pinned():
    """SHA-256 of the graph6 lines of every class on 8 vertices, taken from
    the generator that deduped every max-degree extension by canonical form."""
    lines = "".join(encode_graph6(g) + "\n" for g in all_graphs(EnumerationConfig(8)))
    assert hashlib.sha256(lines.encode("ascii")).hexdigest() == (
        "e1aed63b07ff72557885ee1244044d6ad30ba1b182f74cc7bcb7a02da8d34867")


def _networkx_automorphism_count(g):
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


def test_twin_quotient_gives_the_automorphism_group_order():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            classes, automorphisms = enumeration._twin_quotient(g, canonical._twin_masks(n, g.rows))
            assert sum(classes) == g.full_mask
            order = (1 + len(automorphisms)) * prod(factorial(cls.bit_count()) for cls in classes)
            assert order == _networkx_automorphism_count(g), g
