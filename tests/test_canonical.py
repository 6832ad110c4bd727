"""Canonical forms: label invariance, color sensitivity, capacity, the
packed code the labeling search returns against packing its canonical
graph, and the search against the cell-partition search it replaced."""

import random
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
from threshkit.graphs import ColoredGraph, Graph, disjoint_union
from threshkit.limits import CapacityError, Limits
from threshkit.named import cycle_graph, matching, path_graph

from oracles import oracle_cell_min_order, raw_extensions
from strategies import colored_graphs, complement, graph_from_mask, graphs


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


def assert_labels_as_oracle(g, colors=None, twins=None) -> None:
    """The search and the cell-partition oracle give the same code, and
    their orders relabel g, and its colors, to the same graph."""
    order, code = canonical._min_order(g.n, g.rows, colors, twins)
    oracle_order, oracle_code = oracle_cell_min_order(g.n, g.rows, colors)
    assert code == oracle_code, (g, colors)
    assert g.relabel(order) == g.relabel(oracle_order), (g, colors)
    if colors is not None:
        assert [colors[v] for v in order] == [colors[v] for v in oracle_order]


def check_labeling_on_every_small_graph(n_plain: int, n_colored: int) -> int:
    """The search against the cell-partition oracle on every class with
    n <= n_plain under a seeded random relabeling, and on every 2-coloring
    of every class with n <= n_colored, twin masks passed in. Returns the
    number of labelings compared."""
    rnd = random.Random(1)
    compared = 0
    for n in range(1, n_plain + 1):
        for g in all_graphs(EnumerationConfig(n)):
            order = list(range(n))
            rnd.shuffle(order)
            assert_labels_as_oracle(g.relabel(order))
            compared += 1
    for n in range(1, n_colored + 1):
        for g in all_graphs(EnumerationConfig(n)):
            twins = _twin_masks(n, g.rows)
            for colors in product((0, 1), repeat=n):
                assert_labels_as_oracle(g, colors, twins)
                compared += 1
    return compared


def test_labeling_check_covers_every_small_class_and_coloring():
    # 1 + 2 + 4 + 11 + 34 + 156 classes, and 2 + 8 + 32 + 176 colorings
    assert check_labeling_on_every_small_graph(6, 4) == 208 + 218


@pytest.mark.parametrize("n", range(1, 8))
def test_labels_as_oracle_on_every_raw_extension(n):
    for g in raw_extensions(n):
        assert_labels_as_oracle(g)


@pytest.mark.parametrize("n", range(1, 7))
def test_labels_as_oracle_on_every_two_coloring(n):
    for g in all_graphs(EnumerationConfig(n)):
        twins = _twin_masks(n, g.rows)
        for colors in product((0, 1), repeat=n):
            assert_labels_as_oracle(g, colors)
            assert_labels_as_oracle(g, colors, twins)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=8, max_n=10), st.randoms(use_true_random=False), st.integers(1, 4))
def test_labels_as_oracle_on_larger_graphs(g, rnd, k):
    order = list(range(g.n))
    rnd.shuffle(order)
    relabeled = g.relabel(order)
    assert_labels_as_oracle(relabeled)
    assert_labels_as_oracle(relabeled, tuple(rnd.randrange(k) for _ in range(g.n)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


C5 = cycle_graph(5)


@pytest.mark.parametrize("g", [
    cycle_graph(14),
    matching(8),
    # complements of disjoint unions: each side of the join is a module
    # that the search places whole
    complement(disjoint_union(C5, C5)),
    complement(petersen()),
    complement(matching(5)),
    complement(disjoint_union(disjoint_union(C5, C5), C5)),
], ids=["C14", "8K2", "co-2C5", "co-Petersen", "co-5K2", "co-3C5"])
def test_labels_as_oracle_on_symmetric_graphs(g):
    assert_labels_as_oracle(g)
