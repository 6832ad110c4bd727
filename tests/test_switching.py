"""Seidel switching: algebra, classes, threshold and cograph switch search,
and the switch-set oracle by prefix extension against the per-set scan."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import threshkit.switching as switching
from threshkit.canonical import canonical_form
from threshkit.embed import PatternList, find_first_embedding
from threshkit.enumeration import EnumerationConfig, all_graphs
from threshkit.graph6 import decode_graph6
from threshkit.kthreshold import is_threshold
from threshkit.limits import DEFAULT_LIMITS
from threshkit.named import (
    complete_graph,
    cycle_graph,
    empty_graph,
    gem,
    path_graph,
)
from threshkit.graphs import Graph, disjoint_union
from threshkit.obstructions import recognize_switch_cograph_fis
from threshkit.switching import (
    extend_switch_sets,
    has_cograph_switch,
    is_cograph,
    is_switch_cograph,
    switch,
    switch_to_threshold,
    switching_class,
)

from oracles import is_threshold_graph, oracle_least_cograph_switch, oracle_switch_scan
from strategies import (
    cographs_with_a_flip,
    complement,
    gnp_graphs,
    graphs,
    random_switch_cograph,
    switched_threshold_graphs,
)


def test_switch_definition_on_an_edge():
    g = complete_graph(2)
    assert switch(g, 0b01).edge_count() == 0
    assert switch(g, 0b11) == g


def test_switch_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        switch(path_graph(2), 0b100)


@given(graphs(max_n=7), st.integers(0, 127))
def test_switch_is_an_involution(g, raw):
    s = raw & g.full_mask
    assert switch(switch(g, s), s) == g


@given(graphs(max_n=7), st.integers(0, 127))
def test_switch_by_complement_set_is_identical(g, raw):
    s = raw & g.full_mask
    assert switch(g, s) == switch(g, g.full_mask ^ s)


@given(graphs(max_n=7))
def test_switch_by_empty_set_is_identity(g):
    assert switch(g, 0) == g


@given(graphs(max_n=6), st.integers(0, 63))
def test_switching_class_is_switch_invariant(g, raw):
    s = raw & g.full_mask
    assert switching_class(switch(g, s)) == switching_class(g)


def test_switching_class_contains_the_graph():
    g = path_graph(4)
    forms = switching_class(g)
    assert canonical_form(g) in forms
    assert forms == tuple(sorted({canonical_form(decode_graph6(form)) for form in forms}))


def test_switching_class_of_c5():
    forms = set(switching_class(cycle_graph(5)))
    from threshkit.named import bull, cogem

    expected = {canonical_form(h) for h in (cycle_graph(5), gem(), cogem(), bull())}
    assert forms == expected


def test_threshold_graph_needs_no_switch():
    cert = switch_to_threshold(complete_graph(4))
    assert cert is not None and cert.set == 0


def test_c4_plus_two_isolated_has_no_threshold_switch():
    g = disjoint_union(cycle_graph(4), empty_graph(2))
    assert switch_to_threshold(g) is None


def test_switch_certificates_verify():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            cert = switch_to_threshold(g)
            if cert is not None:
                assert switch(g, cert.set) == cert.target
                assert is_threshold(cert.target) is not None


def test_switch_search_makes_at_most_n_plus_one_switches(monkeypatch):
    """The switch search tries only the restricted search's candidate
    sets: one for each vertex other than 0, and two for vertex 0."""
    switched = []
    switch_of = switching.switch
    monkeypatch.setattr(switching, "switch", lambda g, s: switched.append(s) or switch_of(g, s))
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            switched.clear()
            switch_to_threshold(g)
            assert len(switched) <= n + 1, g


def oracle_is_cograph(g):
    """The earlier test: split induced Graph objects into components, or
    into the components of their complement."""
    stack = [g]
    while stack:
        h = stack.pop()
        if h.n == 1:
            continue
        parts = h.components()
        if len(parts) == 1:
            parts = complement(h).components()
            if len(parts) == 1:
                return False
        stack.extend(h.induced(p) for p in parts)
    return True


def test_is_cograph_equals_oracle_up_to_n7():
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert is_cograph(g) == oracle_is_cograph(g)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(min_n=8, max_n=14), cographs_with_a_flip()))
def test_is_cograph_equals_oracle_on_larger_graphs(g):
    assert is_cograph(g) == oracle_is_cograph(g)


def test_is_cograph_matches_p4_free():
    p4 = PatternList([(None, path_graph(4), None)])
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            assert is_cograph(g) == (find_first_embedding(g, p4) is None)


def assert_p4_mask(g):
    """_p4 gives 0 exactly on cographs, and otherwise the mask of four
    vertices inducing P4: three edges with degrees 1, 1, 2, 2."""
    q = switching._p4(g.rows)
    assert (q == 0) == oracle_is_cograph(g), g
    if q:
        h = g.induced(q)
        assert h.n == 4 and sorted(h.degrees) == [1, 1, 2, 2], (g, q)


def test_p4_masks_are_induced_p4s_up_to_n7():
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert_p4_mask(g)


@settings(max_examples=200, deadline=None)
@given(st.one_of(gnp_graphs(min_n=8, max_n=14), cographs_with_a_flip(min_n=8, max_n=14)))
def test_p4_masks_are_induced_p4s_on_larger_graphs(g):
    assert_p4_mask(g)


def test_cograph_switch_search_agrees_with_fis():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            brute = oracle_switch_scan(g, (is_cograph,))[0] is not None
            assert brute == is_switch_cograph(g) == recognize_switch_cograph_fis(g).accepted


def test_cograph_switch_certificates_verify():
    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            cert = has_cograph_switch(g)
            if cert is not None:
                assert switch(g, cert.set) == cert.target
                assert is_cograph(cert.target)


def test_extend_switch_sets_equals_every_switch_walk():
    """From its prefix class's families, each class on up to 6 vertices gets
    all its cograph and threshold switch sets without vertex 0 in
    ascending masks, and the certificates of the per-set scan, with whole
    or not."""
    families = {(): ([0], [0])}
    for n in range(1, 7):
        low = (1 << n - 1) - 1
        for g in all_graphs(EnumerationConfig(n)):
            prefix = families[tuple(r & low for r in g.rows[:-1])]
            hits, (cographs, thresholds) = extend_switch_sets(g, prefix)
            sets = range(0, 1 << n, 2)
            assert cographs == [s for s in sets if is_cograph(switch(g, s))]
            assert thresholds == [s for s in sets if is_threshold(switch(g, s)) is not None]
            assert hits == extend_switch_sets(g, prefix, False)[0]
            assert hits == oracle_switch_scan(g, (is_cograph, is_threshold_graph)), g
            families[g.rows] = cographs, thresholds


def check_extension_rule(n, limits=DEFAULT_LIMITS):
    """The extension rule against brute-force completion on every state of
    every switch-cograph class on n vertices: the decided vertices 0 and
    j..n-1, for each j, with each switch set t on them. The rule assumes
    that t induces no P4 on the decided vertices other than j, so the state
    extends exactly when that holds and the rule passes. Returns the number
    of states."""
    states = 0
    for g in all_graphs(EnumerationConfig(n), limits):
        if not is_switch_cograph(g):
            continue
        cograph_sets = [s for s in range(0, 1 << n, 2) if is_cograph(switch(g, s))]
        for j in range(1, n):
            decided = g.full_mask >> j << j | 1
            completed = {s & decided for s in cograph_sets}
            for t in range(0, decided, 1 << j):
                rule = (is_cograph(switch(g, t).induced(decided ^ 1 << j))
                        and switching._extends(g.rows, decided, t, j))
                assert rule == (t in completed), (g, j, t)
                states += 1
    return states


def test_extension_rule_equals_brute_force_completion_up_to_n7():
    assert sum(check_extension_rule(n) for n in range(1, 8)) == 55534


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(15, 26))
def test_greedy_cograph_switch_equals_depth_first_search(rnd, n):
    """Sizes where the per-set scan is too slow to be the oracle."""
    g = random_switch_cograph(rnd, n)
    assert has_cograph_switch(g).set == oracle_least_cograph_switch(g)


def test_switch_scan_equals_separate_searches_exhaustively():
    """The per-set scan offers each switch to the cograph test, then to the
    threshold test: its two hits are those of the one-predicate scans."""
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert oracle_switch_scan(g, (is_cograph, is_threshold_graph)) == (
                oracle_switch_scan(g, (is_cograph,))[0],
                oracle_switch_scan(g, (is_threshold_graph,))[0]), g


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    graphs(min_n=8, max_n=12),
    cographs_with_a_flip(min_n=8, max_n=12),
    switched_threshold_graphs(min_n=8, max_n=12),
))
def test_switch_scan_equals_separate_searches_on_larger_graphs(g):
    assert oracle_switch_scan(g, (is_cograph, is_threshold_graph)) == (
        oracle_switch_scan(g, (is_cograph,))[0], oracle_switch_scan(g, (is_threshold_graph,))[0])


@settings(max_examples=20, deadline=None)
@given(switched_threshold_graphs(min_n=8, max_n=12))
def test_switched_threshold_hosts_hit_both_predicates(g):
    """Switched threshold hosts give each predicate a hit, so the tests
    here compare certificates, not only None."""
    cograph_hit, threshold_hit = oracle_switch_scan(g, (is_cograph, is_threshold_graph))
    assert threshold_hit is not None and cograph_hit.set <= threshold_hit.set


def prefix_walk(g):
    """extend_switch_sets on each prefix of g in turn, from the graph on
    vertex 0 up to g, with whole families below g: the hits for g, first
    cograph and first threshold switch."""
    family = ([0], [0])
    for k in range(1, g.n + 1):
        low = (1 << k) - 1
        prefix = Graph(k, tuple(r & low for r in g.rows[:k]))
        hits, family = extend_switch_sets(prefix, family, k < g.n)
    return hits


# chains the per-set oracle walks: it offers each switch to the cograph
# test, then to the threshold test, until the last predicate accepts. The
# prefix walk's hits are the oracle's for the full chain and for its prefix
CHAINS = {
    "cograph-threshold": (is_cograph, is_threshold_graph),
    "cograph": (is_cograph,),
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_switch_scan_equals_the_per_set_oracle_up_to_n7(chain):
    accepts = CHAINS[chain]
    for n in range(1, 8):
        for g in all_graphs(EnumerationConfig(n)):
            assert prefix_walk(g)[:len(accepts)] == oracle_switch_scan(g, accepts), g


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    gnp_graphs(min_n=8, max_n=11),
    cographs_with_a_flip(min_n=8, max_n=11),
    switched_threshold_graphs(min_n=8, max_n=11),
), st.sampled_from(sorted(CHAINS)))
def test_switch_scan_equals_the_per_set_oracle_on_larger_graphs(g, chain):
    accepts = CHAINS[chain]
    assert prefix_walk(g)[:len(accepts)] == oracle_switch_scan(g, accepts)
