"""Unchecked construction of derived graphs, and validation at the boundary.

switch, induced, delete_vertex and relabel build their results without
validation, and enumeration labels the rows of each extension without
building a graph, because rows derived from a valid graph are valid. Each
result must equal the graph the validating constructor builds from the
same rows; the public constructors must still reject bad rows.
The same holds for colored graphs: canonical_colored_graph, delete_vertex,
swapped and the colored enumeration derive theirs unchecked, and
ColoredGraph(...) and colored graph6 lines still validate. The coloring
searches, extend_white_sets among them, build no colored graph: they hand
the elimination kernel the masks that eliminate derives from the validated
ColoredGraph, and the pruned one hands it, for each coloring prefix it
tries, what eliminate hands it for the colored subgraph induced on the
prefix.
"""

from functools import cache
from itertools import permutations, product

import pytest

from threshkit import kthreshold
from threshkit.canonical import canonical_colored_graph
from threshkit.enumeration import EnumerationConfig, _extended_rows, all_colored_graphs, all_graphs
from threshkit.graph6 import GraphParseError, decode_graph6, encode_graph6, parse_graph_line
from threshkit.graphs import ColoredGraph, Graph, _unchecked_graph
from threshkit.kthreshold import (
    EXTENDED,
    RESTRICTED,
    SPECIAL,
    eliminate,
    extend_white_sets,
    general_dialect,
    is_extended,
    is_k_threshold,
    is_restricted,
    is_special,
)
from threshkit.limits import CapacityError
from threshkit.named import path_graph
from threshkit.switching import switch

from strategies import prefix_colorings


def assert_valid(h: Graph) -> None:
    assert type(h.n) is int and type(h.rows) is tuple
    assert h == Graph(h.n, h.rows)
    assert hash(h) == hash(Graph(h.n, h.rows))


@pytest.mark.parametrize("n", range(1, 7))
def test_derived_graphs_equal_validated_graphs(n):
    for g in all_graphs(EnumerationConfig(n)):
        for mask in range(1, 1 << n):
            assert_valid(g.induced(mask))
        for mask in range(1 << n):
            assert_valid(switch(g, mask))
            assert_valid(_unchecked_graph(n + 1, _extended_rows(g.rows, mask)))
        for v in range(n if n > 1 else 0):  # K1 has no nonempty vertex-deleted subgraph
            assert_valid(g.delete_vertex(v))
        for order in permutations(range(n)):
            assert_valid(g.relabel(order))


def assert_valid_colored(cg: ColoredGraph) -> None:
    assert_valid(cg.graph)
    assert type(cg.colors) is tuple
    assert cg == ColoredGraph(cg.graph, cg.colors)
    assert hash(cg) == hash(ColoredGraph(cg.graph, cg.colors))


@pytest.mark.parametrize("n", range(1, 6))
def test_derived_colored_graphs_equal_validated_ones(n, monkeypatch):
    for cg in all_colored_graphs(n):
        assert_valid_colored(cg)
        assert_valid_colored(cg.swapped())
        for v in range(n if n > 1 else 0):
            assert_valid_colored(cg.delete_vertex(v))
    for g in all_graphs(EnumerationConfig(n)):
        for colors in product((0, 1), repeat=n):
            assert_valid_colored(canonical_colored_graph(ColoredGraph(g, colors)))
        whites_below(g)  # the prefix family, found before the kernel is watched
    # what the coloring searches hand the elimination kernel, call for
    # call: what eliminate hands it for the validated ColoredGraph of each
    # coloring, or coloring prefix, that the search tries
    handed = []
    kernel = kthreshold.elimination_picks
    monkeypatch.setattr(kthreshold, "elimination_picks",
                        lambda *args: handed.append(args) or kernel(*args))
    for g in all_graphs(EnumerationConfig(n)):
        for search, dialect, colorings, pruned in COLORING_SEARCHES:
            handed.clear()
            search(g)
            tried = list(handed)
            for args in tried:
                assert kernel(*kernel_view(*args)) == kernel(*args)
            handed.clear()
            replay(g, dialect(g), colorings(g), pruned)
            assert [kernel_view(*args) for args in tried] == [kernel_view(*args) for args in handed]


def kernel_view(rows, alive, masks):
    """What the kernel reads of its arguments: the rows of the alive
    vertices and the masks, each on the alive vertices only."""
    return (tuple(rows[v] & alive if alive >> v & 1 else 0 for v in range(alive.bit_length())),
            alive, tuple(mask & alive for mask in masks))


def replay(g, dialect, colorings, pruned):
    """Eliminate, in order, what a search that walks colorings tries, up to
    the first full coloring that eliminates. An unpruned search tries each
    full coloring. A pruned one tries each prefix of each coloring, as the
    colored subgraph it induces, the first time the prefix comes up, and
    skips the rest of a coloring at a prefix that does not eliminate."""
    verdicts = {}
    for coloring in colorings:
        for m in range(1, g.n + 1) if pruned else (g.n,):
            prefix = tuple(coloring[:m])
            if prefix not in verdicts:
                cg = ColoredGraph(g.induced((1 << m) - 1), prefix)
                verdicts[prefix] = eliminate(cg, dialect) is not None
            if not verdicts[prefix]:
                break
        else:
            return


def numbered_by_first_use(coloring):
    return all(c <= max(coloring[:i], default=-1) + 1 for i, c in enumerate(coloring))


def candidates(g, dialect):
    """The colorings the two-color search walks, from its white sets, in
    product order."""
    return sorted(tuple(white >> v & 1 for v in range(g.n))
                  for white in kthreshold._candidate_white_sets(g, dialect))


@cache
def special_whites(g):
    """The white classes of the SPECIAL-valid colorings of g, in product
    order, from one elimination per coloring."""
    return [sum(c << v for v, c in enumerate(colors)) for colors in product((0, 1), repeat=g.n)
            if eliminate(ColoredGraph(g, colors), SPECIAL) is not None]


def whites_below(g):
    """The family extend_white_sets takes for g: special_whites of g less
    its last vertex, or [0] for the graph on no vertices."""
    return special_whites(g.induced((1 << g.n - 1) - 1)) if g.n > 1 else [0]


def extensions(g):
    """The colorings extend_white_sets tries: each of whites_below(g), as a
    coloring of g with its last vertex black, then white."""
    bit = 1 << g.n - 1
    return [tuple(white >> v & 1 for v in range(g.n))
            for prefix in whites_below(g) for white in (prefix, prefix | bit)]


# (search, the dialect it eliminates with on g, the full colorings it walks
# in order, whether it prunes by prefix)
COLORING_SEARCHES = (
    # up to the first hit; a whole walk makes the same calls for the rest
    (lambda g: extend_white_sets(g, SPECIAL, whites_below(g), False), lambda g: SPECIAL,
     extensions, False),
    (is_special, lambda g: SPECIAL, lambda g: candidates(g, SPECIAL), False),
    (is_restricted, lambda g: RESTRICTED, lambda g: candidates(g, RESTRICTED), False),
    (is_extended, lambda g: EXTENDED, lambda g: candidates(g, EXTENDED), False),
    (lambda g: is_k_threshold(g, 2), lambda g: general_dialect(2),
     lambda g: candidates(g, general_dialect(2)), False),
    # the prefix order, less the colorings not numbered by first use, none
    # of which can come before the least valid one; those use no color n
    # or above, so the search leaves out the joins to those colors
    (lambda g: is_k_threshold(g, 3), lambda g: general_dialect(min(3, g.n)),
     lambda g: filter(numbered_by_first_use, prefix_colorings(g.n, 3)), True),
)


@pytest.mark.parametrize("colors", [(0, 1), (0, 1, 1, 0), (0, -1, 0)])
def test_colored_constructor_rejects_bad_colors(colors):
    with pytest.raises(ValueError):
        ColoredGraph(path_graph(3), colors)


def test_colored_graph6_lines_validate(monkeypatch):
    checked = []
    validate = ColoredGraph.__post_init__

    def spy(self):
        checked.append(self.colors)
        validate(self)

    monkeypatch.setattr(ColoredGraph, "__post_init__", spy)
    text = encode_graph6(path_graph(3))
    parse_graph_line(f"{text} bwb")
    assert checked == [(0, 1, 0)]
    with pytest.raises(GraphParseError):
        parse_graph_line(f"{text} bw")


def test_derived_graph_argument_checks_remain():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.induced(0)
    with pytest.raises(ValueError):
        g.induced(0b1000)
    with pytest.raises(ValueError):
        g.relabel((0, 0, 1))


@pytest.mark.parametrize(
    "n, rows",
    [
        (3, (0b110, 0b001, 0)),  # 0 lists 2 but 2 does not list 0
        (2, (0b11, 0b01)),  # loop beside a symmetric edge
        (2, (0b100, 0)),  # row mentions vertex 2
        (2, (0b10,)),  # too few rows
        (0, ()),  # no vertices
        (65, (0,) * 65),  # more than MAX_VERTICES
    ],
)
def test_public_constructor_rejects_bad_rows(n, rows):
    with pytest.raises(ValueError):
        Graph(n, rows)


def test_from_edges_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(-1, 2)])


def test_boundary_constructors_validate(monkeypatch):
    text = encode_graph6(path_graph(4))
    checked = []
    validate = Graph.__post_init__

    def spy(self):
        checked.append(self.rows)
        validate(self)

    monkeypatch.setattr(Graph, "__post_init__", spy)
    Graph.from_edges(3, [(0, 1)])
    decode_graph6(text)
    assert checked == [(0b010, 0b001, 0), (0b0010, 0b0101, 0b1010, 0b0100)]


def test_graph6_rejects_what_it_cannot_represent():
    with pytest.raises(GraphParseError):
        decode_graph6("?")  # zero vertices
    with pytest.raises(GraphParseError):
        decode_graph6("BF")  # nonzero padding bits
    with pytest.raises(CapacityError):
        decode_graph6("~?@A" + "?" * 358)  # 65 vertices
