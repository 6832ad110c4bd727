"""Forbidden-induced-subgraph recognizers and obstruction discovery."""

from functools import lru_cache
import random

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

import threshkit.canonical as canonical
from threshkit import embed, obstructions
from threshkit.canonical import canonical_form
from threshkit.catalogs import load_catalog
from threshkit.embed import PatternList, find_first_embedding
from threshkit.classes import ROWS
from threshkit.enumeration import EnumerationConfig, _code, _prefix_code, all_colored_graphs, all_graphs
from threshkit.graph6 import decode_graph6, encode_graph6, format_graph_line
from threshkit.graphs import ColoredGraph, disjoint_union, join
from threshkit.kthreshold import (
    THRESHOLD,
    eliminate,
    general_dialect,
    is_good,
    is_k_threshold,
    is_special,
    is_threshold,
)
from threshkit.named import (
    bull,
    complete_graph,
    cycle_graph,
    empty_graph,
    gem,
    matching,
    named_graphs,
    path_graph,
)
from threshkit.obstructions import (
    _catalog_patterns,
    _descendants,
    _scan,
    find_minimal_colored_obstructions,
    find_minimal_obstructions,
    recognize_good_fis,
    recognize_partitioned_fis,
    recognize_special_fis,
    recognize_switch_cograph_fis,
    recognize_switch_threshold_fis,
    recognize_threshold_fis,
)
from threshkit.switching import switch, switch_to_threshold, switching_class

from strategies import (
    cographs_with_a_flip,
    colored_graphs,
    gnp_graphs,
    random_member,
    switched_threshold_graphs,
)

SWAP_SUFFIX = ":swapped"


@lru_cache(maxsize=1)
def switch_threshold_patterns():
    """The earlier switch-threshold scan list, derived at run time: the union
    of the switching classes of 3K2, C5 and C4+2K1 as canonical
    representatives, deduplicated by form, named after the shipped catalog
    where possible and sorted by (n, name)."""
    reg = named_graphs()
    by_form = {}
    for seed in ("3k2", "c5", "c4-2k1"):
        for form in switching_class(reg[seed]):
            by_form.setdefault(form, decode_graph6(form))
    names = {canonical_form(e.graph): e.name
             for e in load_catalog("switch_threshold").entries}
    pats = [(names.get(form, form), by_form[form]) for form in sorted(by_form)]
    return tuple(sorted(pats, key=lambda p: (p[1].n, p[0])))


def _resolve_pattern(family, name):
    """Map a FisResult pattern name back to the pattern object it names."""
    cat = load_catalog(family)
    if name.endswith(SWAP_SUFFIX):
        return cat.lookup(name[: -len(SWAP_SUFFIX)]).obstruction.swapped()
    return cat.lookup(name).obstruction


def _check_embedding(result, host, family, colored=False):
    """The returned embedding must realize the named pattern in the host."""
    assert result.pattern is not None and result.embedding is not None
    pat = _resolve_pattern(family, result.pattern)
    emb = result.embedding
    pg = pat.graph if colored else pat
    hg = host.graph if colored else host
    assert len(emb) == pg.n == len(set(emb))
    for i in range(pg.n):
        for j in range(i + 1, pg.n):
            assert hg.has_edge(emb[i], emb[j]) == pg.has_edge(i, j)
    if colored:
        for i in range(pg.n):
            assert host.colors[emb[i]] == pat.colors[i]


def test_threshold_fis_accepts_members():
    for g in (complete_graph(4), path_graph(3), empty_graph(5)):
        res = recognize_threshold_fis(g)
        assert res.accepted
        assert res.pattern is None and res.embedding is None


def test_threshold_fis_rejects_with_witness():
    host = disjoint_union(path_graph(4), complete_graph(2))
    res = recognize_threshold_fis(host)
    assert not res.accepted
    _check_embedding(res, host, "threshold")


def test_threshold_fis_matches_elimination_exhaustively():
    from threshkit.enumeration import EnumerationConfig, all_graphs

    for n in range(1, 7):
        for g in all_graphs(EnumerationConfig(n)):
            assert recognize_threshold_fis(g).accepted == (is_threshold(g) is not None)


def test_special_fis_known_cases():
    assert recognize_special_fis(path_graph(4)).accepted
    res = recognize_special_fis(cycle_graph(5))
    assert not res.accepted
    _check_embedding(res, cycle_graph(5), "special2t")
    assert is_special(cycle_graph(5)) is None


def test_good_fis_known_cases():
    assert recognize_good_fis(cycle_graph(5)).accepted
    assert is_good(cycle_graph(5))
    res = recognize_good_fis(gem())
    assert not res.accepted
    _check_embedding(res, gem(), "good")


def test_switch_cograph_fis_known_cases():
    assert recognize_switch_cograph_fis(path_graph(4)).accepted
    for bad in (cycle_graph(5), bull(), gem()):
        res = recognize_switch_cograph_fis(bad)
        assert not res.accepted
        assert _resolve_pattern("switch_cograph", res.pattern).n == bad.n


def test_switch_threshold_fis_known_cases():
    assert recognize_switch_threshold_fis(cycle_graph(4)).accepted
    assert switch_to_threshold(cycle_graph(4)) is not None
    host = disjoint_union(matching(2), cycle_graph(4))
    res = recognize_switch_threshold_fis(host)
    assert not res.accepted
    _check_embedding(res, host, "switch_threshold")


def test_partitioned_fis_known_cases():
    mono = ColoredGraph(matching(2), (0, 0, 0, 0))
    res = recognize_partitioned_fis(mono)
    assert not res.accepted
    _check_embedding(res, mono, "partitioned2t", colored=True)
    bi = ColoredGraph(matching(2), (0, 0, 1, 1))
    assert recognize_partitioned_fis(bi).accepted
    assert eliminate(bi, general_dialect(2)) is not None


def test_partitioned_fis_on_buildable_coloring():
    cg = ColoredGraph(path_graph(3), (1, 0, 1))
    assert recognize_partitioned_fis(cg).accepted


def test_minimal_threshold_obstructions_are_the_classic_three():
    found = find_minimal_obstructions(lambda g: is_threshold(g) is not None, 5)
    cat = load_catalog("threshold")
    assert {canonical_form(g) for g in found} == {
        canonical_form(e.graph) for e in cat.entries
    }


def test_minimal_three_threshold_obstructions_up_to_seven_vertices():
    found = find_minimal_obstructions(lambda g: is_k_threshold(g, 3) is not None, 7)
    assert [sum(g.n == n for g in found) for n in range(1, 8)] == [0, 0, 0, 0, 1, 11, 4]


def test_switch_threshold_patterns_match_catalog():
    pats = switch_threshold_patterns()
    cat = load_catalog("switch_threshold")
    assert len(pats) == len(cat.entries) == 16
    assert {canonical_form(g) for _, g in pats} == {
        canonical_form(e.graph) for e in cat.entries
    }
    # every pattern carries its catalog name, none fell back to a raw form
    assert {name for name, _ in pats} == {e.name for e in cat.entries}


def test_switch_threshold_patterns_are_canonical_representatives():
    for _, h in switch_threshold_patterns():
        assert encode_graph6(h) == canonical_form(h)


def test_switch_threshold_catalog_stores_canonical_graph6():
    for e in load_catalog("switch_threshold").entries:
        assert encode_graph6(e.graph) == canonical_form(e.graph), e.name


def test_switch_threshold_scan_is_the_computed_patterns():
    """Read from the catalog, the scan list is exactly the list computed from
    the switching classes: names, labelings and order alike."""
    computed = [(name, h, None) for name, h in switch_threshold_patterns()]
    assert list(_catalog_patterns("switch_threshold")) == computed


PLAIN_CATALOGS = sorted({row.catalog for row in ROWS if row.fis is not None and not row.colored})


@pytest.mark.parametrize("family", PLAIN_CATALOGS)
def test_plain_catalog_scan_keeps_every_entry_in_n_name_order(family):
    entries = sorted(load_catalog(family).entries, key=lambda e: (e.graph.n, e.name))
    assert list(_catalog_patterns(family)) == [(e.name, e.graph, None) for e in entries]


def test_partitioned_pattern_set_is_swap_closed():
    cat = load_catalog("partitioned2t")
    forms = {canonical_form(e.obstruction) for e in cat.entries}
    swapped = {canonical_form(e.obstruction.swapped()) for e in cat.entries}
    assert forms == swapped


def test_each_catalog_entry_is_its_own_witness():
    """Every FIS scan rejects each entry of its catalog with a pattern on all
    of the entry's vertices, and accepts each one-vertex deletion."""
    for row in ROWS:
        if row.fis is None:
            continue
        for e in load_catalog(row.catalog).entries:
            obj = e.obstruction
            res = row.fis(obj)
            assert not res.accepted, (row.name, e.name)
            assert len(res.embedding) == e.graph.n, (row.name, e.name)
            for v in range(e.graph.n):
                assert row.fis(obj.delete_vertex(v)).accepted, (row.name, e.name, v)


def test_colored_discovery_matches_catalog_at_small_n():
    member = lambda cg: eliminate(cg, general_dialect(2)) is not None
    found = find_minimal_colored_obstructions(member, 4)
    cat = load_catalog("partitioned2t")
    expected = {
        canonical_form(e.obstruction)
        for e in cat.entries
        if e.graph.n <= 4
    }
    assert {canonical_form(cg) for cg in found} == expected


def test_embed_helpers_agree_with_recognizers():
    host = disjoint_union(matching(2), complete_graph(1))
    assert find_first_embedding(host, PatternList([(None, matching(2), None)])) is not None
    colored = PatternList([(None, matching(2), (0, 0, 0, 0))])
    assert find_first_embedding(host, colored, (0, 0, 0, 0, 1)) is not None


@lru_cache(maxsize=1)
def all_partitioned_patterns():
    """The earlier partitioned pattern list: every entry, plus its color
    swap where that is not isomorphic to it, sorted by (n, name)."""
    pats = []
    for e in load_catalog("partitioned2t").entries:
        cg = e.obstruction
        pats.append((e.name, cg.graph, cg.colors))
        swapped = cg.swapped()
        if canonical_form(swapped) != canonical_form(cg):
            pats.append((e.name + SWAP_SUFFIX, swapped.graph, swapped.colors))
    return PatternList(sorted(pats, key=lambda p: (p[1].n, p[0])))


def _scan_pair(cg, patterns=None):
    """(pattern name, embedding) of a partitioned scan; (None, None) when it accepts."""
    if patterns is None:
        res = recognize_partitioned_fis(cg)
        return res.pattern, res.embedding
    return find_first_embedding(cg.graph, patterns, cg.colors) or (None, None)


def test_partitioned_patterns_keep_the_first_of_each_class():
    every = all_partitioned_patterns()
    kept = _catalog_patterns("partitioned2t")
    assert (len(every), len(kept)) == (43, 25)
    forms = [canonical_form(ColoredGraph(g, c)) for _, g, c in kept]
    assert len(set(forms)) == len(kept)  # no two kept patterns are isomorphic
    first: dict[str, tuple] = {}
    for p in every:
        first.setdefault(canonical_form(ColoredGraph(p[1], p[2])), p)
    assert list(kept) == list(first.values())


def test_kept_patterns_scan_like_all_patterns_on_small_hosts():
    every = all_partitioned_patterns()
    for n in range(1, 7):
        for cg in all_colored_graphs(n):
            assert _scan_pair(cg) == _scan_pair(cg, every), cg


@settings(max_examples=150, deadline=None)
@given(colored_graphs(min_n=7, max_n=12))
def test_kept_patterns_scan_like_all_patterns_on_larger_hosts(cg):
    assert _scan_pair(cg) == _scan_pair(cg, all_partitioned_patterns())


def oracle_find_minimal(member, n_max, graphs_on):
    """The earlier discovery body: verdicts keyed by graph6 line, and a
    canonical form for every deletion of every non-member."""
    verdicts = {}
    out = []
    for n in range(1, n_max + 1):
        for g in graphs_on(n):
            ok = bool(member(g))
            verdicts[format_graph_line(g)] = ok
            if ok or n == 1:
                continue
            if all(verdicts[canonical_form(g.delete_vertex(v))] for v in range(n)):
                out.append(g)
    return out


def _plain_level(n):
    return all_graphs(EnumerationConfig(n))


def _member_set(member, n_max, graphs_on):
    return {g for n in range(1, n_max + 1) for g in graphs_on(n) if member(g)}


PLAIN_MEMBERS = [row for row in ROWS if row.member is not None and not row.colored]


@pytest.mark.parametrize("row", PLAIN_MEMBERS, ids=lambda row: row.name)
def test_discovery_equals_oracle_on_each_plain_class(row):
    members = _member_set(row.member, 6, _plain_level)
    assert find_minimal_obstructions(members.__contains__, 6) == oracle_find_minimal(
        members.__contains__, 6, _plain_level
    )


def test_colored_discovery_equals_oracle():
    member = lambda cg: eliminate(cg, general_dialect(2)) is not None
    members = _member_set(member, 5, all_colored_graphs)
    assert find_minimal_colored_obstructions(members.__contains__, 5) == oracle_find_minimal(
        members.__contains__, 5, all_colored_graphs
    )


def test_discovery_equals_oracle_on_a_synthetic_hereditary_predicate():
    # at most three edges, and in the colored case at most two black vertices:
    # both are kept by every induced subgraph
    plain = lambda g: g.edge_count() <= 3
    assert find_minimal_obstructions(plain, 6) == oracle_find_minimal(plain, 6, _plain_level)
    colored = lambda cg: cg.graph.edge_count() <= 3 and cg.colors.count(1) <= 2
    assert find_minimal_colored_obstructions(colored, 5) == oracle_find_minimal(
        colored, 5, all_colored_graphs
    )


def test_colored_discovery_labels_each_distinct_deletion_once(monkeypatch):
    """A work-count gate: with the enumeration warm, every canonical labeling
    discovery makes is of a distinct labeled deletion on one level."""
    member = lambda cg: eliminate(cg, general_dialect(2)) is not None
    members = _member_set(member, 5, all_colored_graphs)
    calls = []
    real = canonical._min_order
    monkeypatch.setattr(canonical, "_min_order", lambda *args: calls.append(args) or real(*args))
    find_minimal_colored_obstructions(members.__contains__, 5)
    labeled = len(calls)
    calls.clear()
    oracle_find_minimal(members.__contains__, 5, all_colored_graphs)
    assert (labeled, len(calls)) == (134, 629)


@pytest.mark.parametrize("n, colored",
                         [(n, False) for n in range(2, 8)] + [(n, True) for n in range(2, 7)])
def test_deletion_arithmetic_equals_deleting_the_vertex(n, colored):
    """Discovery's deletions without graphs: the last one's code by a
    shift, every other one's rows by a squeeze."""
    level = all_colored_graphs(n) if colored else all_graphs(EnumerationConfig(n))
    for g, code in zip(level, level.codes):
        assert _prefix_code(code, n, colored) == _code(g.delete_vertex(n - 1)), g
        plain = g.graph if colored else g
        for v in range(n):
            assert obstructions._deleted_rows(plain.rows, v) == plain.delete_vertex(v).rows


SWITCHING_SCANS = (
    ("switch_threshold", recognize_switch_threshold_fis),
    ("switch_cograph", recognize_switch_cograph_fis),
)


@pytest.mark.parametrize("family", [family for family, _ in SWITCHING_SCANS])
def test_switching_catalog_is_the_union_of_its_switching_classes(family):
    """The precondition of the descent: the catalog is switching-closed."""
    entries = load_catalog(family).entries
    forms = {canonical_form(e.graph) for e in entries}
    assert set().union(*(switching_class(e.graph) for e in entries)) == forms


def test_descendants_are_the_isolated_vertex_entries_less_that_vertex():
    p4 = canonical_form(path_graph(4))
    bowtie = canonical_form(join(complete_graph(1), matching(2)))
    c4_k1 = canonical_form(disjoint_union(cycle_graph(4), complete_graph(1)))
    found = {}
    for family, _ in SWITCHING_SCANS:
        descendants, held = _descendants(family)
        found[family] = [(name, canonical_form(h)) for name, h, _ in descendants], held
    # 3K2 holds none of the three; every entry of the C5 class holds P4
    assert found == {
        "switch_threshold": ([("cogem", p4), ("c4-2k1", c4_k1), ("fig6-02", bowtie)], False),
        "switch_cograph": ([("cogem", p4)], True),
    }


@lru_cache(maxsize=None)
def plain_patterns(family):
    """The scan list of a catalog without its gate."""
    return PatternList(_catalog_patterns(family))


def _scan_both(g):
    """(descent result, plain scan result) for each switching family."""
    return [(fis(g), _scan(g, plain_patterns(family))) for family, fis in SWITCHING_SCANS]


def test_descent_equals_the_plain_scan_on_every_small_host():
    for n in range(1, 9):
        for g in all_graphs(EnumerationConfig(n)):
            for descent, plain in _scan_both(g):
                assert descent == plain, g


@settings(max_examples=150, deadline=None)
@given(st.one_of(switched_threshold_graphs(9, 20), cographs_with_a_flip(9, 20), gnp_graphs(9, 20)))
def test_descent_equals_the_plain_scan_on_larger_hosts(g):
    for descent, plain in _scan_both(g):
        assert descent == plain


def test_descent_search_count_on_a_twelve_vertex_member(monkeypatch):
    """A work-count gate: on this switch of a threshold graph the descent
    makes 18 small searches, each of a 4- or 5-vertex descendant in the
    vertices above one host vertex, and no scan; the plain scan makes 16
    searches of the catalog's 5- and 6-vertex patterns in all 12 vertices,
    each run to the end."""
    g = random_member(random.Random(1), THRESHOLD, 12).graph
    g = switch(g.relabel([5, 11, 0, 7, 2, 9, 4, 1, 10, 3, 8, 6]), 0b101100110010)
    assert switch_to_threshold(g) is not None
    _catalog_patterns("switch_threshold")
    searched = []
    search = embed._search
    monkeypatch.setattr(embed, "_search", lambda *args: searched.append(1) or search(*args))
    assert recognize_switch_threshold_fis(g).accepted
    assert len(searched) == 18
