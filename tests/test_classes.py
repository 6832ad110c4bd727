"""The class registry: one row per class, and the fields of a row agree."""

from importlib import resources

import pytest

from threshkit.catalogs import load_catalog
from threshkit.classes import BY_CATALOG, BY_FAMILY, BY_NAME, ROWS
from threshkit.enumeration import EnumerationConfig, all_colored_graphs, all_graphs
from threshkit.limits import DEFAULT_LIMITS


def test_each_class_and_family_has_one_row():
    assert len(BY_NAME) == len(ROWS)
    families = [row.family for row in ROWS if row.family is not None]
    assert len(BY_FAMILY) == len(families) == 9


def test_every_catalog_is_validated_by_one_row():
    shipped = [p.name[: -len(".tsv")] for p in resources.files("threshkit.data").iterdir()
               if p.name.endswith(".tsv")]
    assert sorted(BY_CATALOG) == sorted(shipped)
    for row in ROWS:
        if row.catalog is not None:
            assert load_catalog(row.catalog).entries, row.name
    assert BY_CATALOG["switch_threshold"] is BY_NAME["switch-threshold"]
    assert BY_NAME["restricted"].catalog == "switch_threshold"


@pytest.mark.parametrize("row", [row for row in ROWS if row.member is not None], ids=lambda row: row.name)
def test_member_predicate_matches_the_recognizer_at_k_two(row):
    if row.colored:
        graphs = [cg for n in range(1, 5) for cg in all_colored_graphs(n)]
    else:
        graphs = [g for n in range(1, 6) for g in all_graphs(EnumerationConfig(n))]
    member = row.member
    for g in graphs:
        assert member(g) == (row.recognize(g, 2, DEFAULT_LIMITS) is not None), g
        if row.fis is not None:
            assert member(g) == row.fis(g).accepted, g
