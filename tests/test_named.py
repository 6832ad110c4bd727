"""Sanity checks for the small named-graph registry."""

from threshkit.canonical import canonical_form
from threshkit.named import (
    bull,
    butterfly,
    cogem,
    complete_graph,
    cone,
    cycle_graph,
    diamond,
    diamond_pendants,
    empty_graph,
    gem,
    house,
    matching,
    named_graphs,
    net,
    octahedron,
    path_graph,
    wheel4_pendant,
)

from strategies import complement


def test_basic_families():
    assert empty_graph(3).edge_count() == 0
    assert complete_graph(4).edge_count() == 6
    assert path_graph(5).degrees == (1, 2, 2, 2, 1)
    assert cycle_graph(6).degrees == (2,) * 6
    assert matching(3).n == 6 and matching(3).edge_count() == 3


def test_cone_adds_universal_vertex():
    g = cone(cycle_graph(4))
    assert g.n == 5
    assert g.degrees[-1] == 4
    assert g.edge_count() == 8


def test_gem_is_cone_of_path():
    assert canonical_form(gem()) == canonical_form(cone(path_graph(4)))


def test_cogem_is_complement_of_gem():
    assert canonical_form(cogem()) == canonical_form(complement(gem()))


def test_shapes_by_degree_sequence():
    assert sorted(house().degrees) == [2, 2, 2, 3, 3]
    assert sorted(bull().degrees) == [1, 1, 2, 3, 3]
    assert sorted(butterfly().degrees) == [2, 2, 2, 2, 4]
    assert sorted(net().degrees) == [1, 1, 1, 3, 3, 3]
    assert sorted(diamond().degrees) == [2, 2, 3, 3]
    assert octahedron().degrees == (4,) * 6
    assert sorted(wheel4_pendant().degrees) == [1, 3, 3, 3, 3, 5]
    assert sorted(diamond_pendants().degrees) == [1, 1, 2, 2, 4, 4]


def test_octahedron_is_complement_of_perfect_matching():
    assert canonical_form(octahedron()) == canonical_form(complement(matching(3)))


def test_registry_is_duplicate_free():
    reg = named_graphs()
    forms = {canonical_form(g) for g in reg.values()}
    assert len(forms) == len(reg)
