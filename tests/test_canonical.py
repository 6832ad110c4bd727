"""Canonical forms: label invariance, color sensitivity, capacity, and the
packed code the labeling search returns against packing its canonical
graph."""

from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit import canonical
from threshkit.canonical import (
    _twin_masks,
    canonical_colored_graph,
    canonical_form,
    canonical_graph,
)
from threshkit.enumeration import EnumerationConfig, _code, all_colored_graphs, all_graphs
from threshkit.graphs import ColoredGraph, Graph
from threshkit.limits import CapacityError, Limits
from threshkit.named import path_graph

from oracles import raw_extensions
from strategies import colored_graphs, graph_from_mask, graphs


@given(graphs(max_n=7), st.randoms())
def test_form_invariant_under_relabeling(g, rnd):
    order = list(range(g.n))
    rnd.shuffle(order)
    assert canonical_form(g.relabel(order)) == canonical_form(g)


@given(graphs(max_n=7))
def test_canonical_graph_is_idempotent(g):
    c = canonical_graph(g)
    assert canonical_graph(c) == c
    assert canonical_form(c) == canonical_form(g)


def test_form_separates_nonisomorphic_small_graphs():
    # all 64 labeled graphs on four vertices fall into exactly 11 classes
    forms = {canonical_form(graph_from_mask(4, m)) for m in range(64)}
    assert len(forms) == 11


@given(colored_graphs(max_n=6), st.randoms())
def test_colored_form_invariant_under_relabeling(cg, rnd):
    order = list(range(cg.n))
    rnd.shuffle(order)
    relabeled = ColoredGraph(
        cg.graph.relabel(order), tuple(cg.colors[order[i]] for i in range(cg.n))
    )
    assert canonical_form(relabeled) == canonical_form(cg)


def test_colored_form_sees_colors():
    center_black = ColoredGraph(path_graph(3), (1, 0, 1))
    center_white = ColoredGraph(path_graph(3), (0, 1, 0))
    assert canonical_form(center_black) != canonical_form(center_white)


def test_colored_form_allows_color_preserving_symmetry():
    # the two labelings of a bichromatic edge are the same colored graph
    e = Graph.from_edges(2, [(0, 1)])
    a = ColoredGraph(e, (0, 1))
    b = ColoredGraph(e, (1, 0))
    assert canonical_form(a) == canonical_form(b)


@given(colored_graphs(max_n=6))
def test_colored_canonical_graph_is_idempotent(cg):
    c = canonical_colored_graph(cg)
    assert canonical_colored_graph(c) == c


def test_first_vertices_of_a_canonical_graph_are_canonical():
    """Discovery looks up the last-vertex deletion without labeling it: the
    minimal string starts with the string of the first n - 1 vertices."""
    for n in range(2, 8):
        for g in all_graphs(EnumerationConfig(n)):
            d = g.delete_vertex(n - 1)
            assert canonical_graph(d) == d, g
    for n in range(2, 7):
        for cg in all_colored_graphs(n):
            d = cg.delete_vertex(n - 1)
            assert canonical_colored_graph(d) == d, cg


def test_capacity_bound_enforced():
    tight = Limits(canonical_max_n=4)
    with pytest.raises(CapacityError):
        canonical_form(path_graph(5), tight)


def searched_code(g) -> int:
    """The code that the labeling search returns for a graph or a colored graph."""
    if isinstance(g, ColoredGraph):
        return canonical._min_order(g.n, g.graph.rows, g.colors)[1]
    return canonical._min_order(g.n, g.rows, None)[1]


@pytest.mark.parametrize("n", range(1, 8))
def test_searched_code_packs_the_canonical_graph_of_every_raw_extension(n):
    for g in raw_extensions(n):
        assert searched_code(g) == _code(canonical_graph(g)), g


@pytest.mark.parametrize("n", range(1, 7))
def test_searched_code_packs_the_canonical_graph_of_every_coloring(n):
    for g in all_graphs(EnumerationConfig(n)):
        twins = _twin_masks(n, g.rows)
        for colors in product((0, 1), repeat=n):
            cg = ColoredGraph(g, colors)
            assert searched_code(cg) == _code(canonical_colored_graph(cg)), cg
            # twin masks passed in change nothing
            searched = canonical._min_order(n, g.rows, colors)
            assert canonical._min_order(n, g.rows, colors, twins) == searched


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=10))
def test_searched_code_packs_the_canonical_graph(g):
    assert searched_code(g) == _code(canonical_graph(g))


@settings(max_examples=200, deadline=None)
@given(colored_graphs(max_n=10))
def test_searched_code_packs_the_canonical_colored_graph(cg):
    assert searched_code(cg) == _code(canonical_colored_graph(cg))
