"""Isomorph-free generation against the edge-subset baseline and the
unpruned extension products."""

from itertools import product

import pytest

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
    baseline_graphs,
    raw_extensions,
)
from threshkit.graphs import ColoredGraph
from threshkit.limits import CapacityError, Limits

from strategies import graph_from_mask


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
    from itertools import product

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
    with pytest.raises(CapacityError):
        all_graphs(EnumerationConfig(9), Limits(enumeration_max_n=8))


def _sorted_by_form(graphs, form):
    seen = {}
    for g in graphs:
        seen.setdefault(form(g), g)
    return tuple(seen[f] for f in sorted(seen))


@pytest.mark.parametrize("n", range(1, 8))
def test_pruned_extensions_equal_the_unpruned_dedup(n):
    unpruned = _sorted_by_form((canonical_graph(g) for g in raw_extensions(n)), canonical_form)
    assert all_graphs(EnumerationConfig(n)) == unpruned


@pytest.mark.parametrize("n", range(1, 7))
def test_pruned_colorings_equal_the_unpruned_product(n):
    every = (
        canonical_colored_graph(ColoredGraph(g, colors))
        for g in all_graphs(EnumerationConfig(n))
        for colors in product((0, 1), repeat=n)
    )
    assert all_colored_graphs(n) == _sorted_by_form(every, canonical_form)


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
    # all 2^(n-1) extensions of every class would be 11,290 labelings
    assert len(calls) == 2088
    calls.clear()
    for n in range(1, 7):
        all_colored_graphs(n)
    # all 2^n colorings of every class would be 11,290 labelings
    assert len(calls) == 7194
