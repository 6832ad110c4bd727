"""Obstruction catalog loading and validation."""

import pytest

from threshkit.catalogs import (
    Catalog,
    CatalogEntry,
    load_catalog,
    validate_catalog,
)
from threshkit.classes import BY_CATALOG
from threshkit.embed import PatternList
from threshkit.graphs import ColoredGraph, Graph
from threshkit.kthreshold import is_threshold
from threshkit.named import complete_graph, cycle_graph, path_graph

EXPECTED_SIZES = {
    "threshold": 3,
    "special2t": 8,
    "good": 5,
    "two_threshold_listed": 41,
    "partitioned2t": 25,
    "switch_threshold": 16,
    "switch_cograph": 4,
}


def test_every_family_loads():
    assert set(BY_CATALOG) == set(EXPECTED_SIZES)
    for family in BY_CATALOG:
        cat = load_catalog(family)
        assert cat.family == family
        assert len(cat.entries) == EXPECTED_SIZES[family]
        assert len({e.name for e in cat.entries}) == len(cat.entries)
        # every entry, and the color swap of a colored one, is small enough
        # for the generated search of a scan list
        patterns = [(e.name, e.graph, e.coloring) for e in cat.entries]
        patterns += [(e.name, e.graph, e.obstruction.swapped().colors)
                     for e in cat.entries if e.coloring is not None]
        assert len(PatternList(patterns)) == len(patterns)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        load_catalog("nonsense")


def test_threshold_catalog_contents():
    cat = load_catalog("threshold")
    assert sorted(e.name for e in cat.entries) == ["2k2", "c4", "p4"]
    entry = cat.lookup("p4")
    assert entry.graph.n == 4
    assert sorted(entry.graph.degrees) == [1, 1, 2, 2]


def test_partitioned_catalog_is_colored_and_swap_closed():
    from threshkit.canonical import canonical_form

    cat = load_catalog("partitioned2t")
    forms = {canonical_form(e.obstruction) for e in cat.entries}
    for e in cat.entries:
        assert e.coloring is not None
        assert canonical_form(e.obstruction.swapped()) in forms


def test_lookup_unknown_name():
    with pytest.raises(KeyError):
        load_catalog("threshold").lookup("c9")


def _threshold_member(g):
    return is_threshold(g) is not None


def test_shipped_threshold_catalog_validates():
    assert validate_catalog(load_catalog("threshold"), _threshold_member) == []


def test_member_entry_is_flagged():
    bogus = Catalog("threshold", (CatalogEntry("k3", complete_graph(3), None, "test"),))
    problems = validate_catalog(bogus, _threshold_member)
    assert [p.condition for p in problems] == ["rejected"]


def test_non_minimal_entry_is_flagged():
    # P5 is not threshold but deleting an endpoint leaves a P4: not minimal
    bogus = Catalog("threshold", (CatalogEntry("p5", path_graph(5), None, "test"),))
    problems = validate_catalog(bogus, _threshold_member)
    assert any(p.condition == "minimal" for p in problems)


def test_duplicate_entries_are_flagged():
    c4 = cycle_graph(4)
    relabeled = c4.relabel((2, 0, 3, 1))
    bogus = Catalog(
        "threshold",
        (
            CatalogEntry("a", c4, None, "test"),
            CatalogEntry("b", relabeled, None, "test"),
        ),
    )
    problems = validate_catalog(bogus, _threshold_member)
    assert any(p.condition == "distinct" for p in problems)


def test_colored_validation_uses_colored_isomorphism():
    # two identical all-black 2K2 entries collide only when colors are read
    from threshkit.named import matching

    e1 = CatalogEntry("m1", matching(2), (0, 0, 0, 0), "test")
    e2 = CatalogEntry("m2", matching(2).relabel((1, 0, 3, 2)), (0, 0, 0, 0), "test")
    bogus = Catalog("partitioned2t", (e1, e2))
    from threshkit.kthreshold import eliminate, general_dialect

    member = lambda cg: eliminate(cg, general_dialect(2)) is not None
    problems = validate_catalog(bogus, member)
    assert any(p.condition == "distinct" for p in problems)


@pytest.mark.parametrize("family", BY_CATALOG)
def test_color_column_decides_the_catalog_kind(family):
    # all entries colored or none, and colored exactly for a colored class
    entries, colored = load_catalog(family).entries, BY_CATALOG[family].colored
    assert {e.coloring is not None for e in entries} == {colored}
    assert {type(e.obstruction) for e in entries} == {ColoredGraph if colored else Graph}
