"""graph6 codec and the colored line format, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from threshkit.graph6 import (
    GraphParseError,
    color_string,
    decode_graph6,
    encode_graph6,
    format_graph_line,
    parse_color_string,
    parse_graph_line,
)
from threshkit.graphs import ColoredGraph, Graph
from threshkit.named import complete_graph, cycle_graph, path_graph

from strategies import graphs


def test_known_encodings():
    assert encode_graph6(Graph(1, (0,))) == "@"
    assert encode_graph6(complete_graph(2)) == "A_"
    assert encode_graph6(path_graph(3)) == "Bg"
    assert encode_graph6(cycle_graph(5)) == "Dhc"


def test_duw_decodes_to_a_five_cycle():
    g = decode_graph6("DUW")
    assert g.n == 5
    assert g.degrees == (2, 2, 2, 2, 2)
    assert len(g.components()) == 1


@given(graphs(max_n=8))
def test_roundtrip(g):
    assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=150)
@given(st.integers(1, 40), st.randoms())
def test_matches_networkx_both_ways(n, rnd):
    h = nx.gnp_random_graph(n, 0.4, seed=rnd.randint(0, 10**9))
    ours = Graph.from_edges(n, h.edges())
    reference = nx.to_graph6_bytes(h, header=False).strip().decode()
    assert encode_graph6(ours) == reference
    assert decode_graph6(reference) == ours


def test_long_form_sizes_roundtrip():
    # n = 63 crosses into the multi-byte size encoding
    g = Graph.from_edges(63, [(0, 62), (30, 31)])
    assert decode_graph6(encode_graph6(g)) == g


def test_decode_rejects_garbage():
    with pytest.raises(GraphParseError):
        decode_graph6("")
    with pytest.raises(GraphParseError):
        decode_graph6("\x7f")
    with pytest.raises(GraphParseError):
        decode_graph6("B")  # truncated edge bits


def test_decode_rejects_trailing_data():
    good = encode_graph6(path_graph(3))
    with pytest.raises(GraphParseError):
        decode_graph6(good + "gg")


def test_color_string_two_colors():
    assert color_string((0, 1, 0)) == "bwb"
    assert parse_color_string("bwb") == (0, 1, 0)


def test_color_string_many_colors():
    assert color_string((0, 2, 1)) == "021"
    assert parse_color_string("021") == (0, 2, 1)
    with pytest.raises(GraphParseError):
        parse_color_string("bx")


def test_graph_line_roundtrip_past_ten_colors():
    """Eleven colors need a number above 9, spelled comma-separated."""
    cg = ColoredGraph(path_graph(11), tuple(range(10, -1, -1)))
    line = format_graph_line(cg)
    assert line.split()[1] == "10,9,8,7,6,5,4,3,2,1,0"
    assert parse_graph_line(line) == cg


@pytest.mark.parametrize("text, offset", [("1,,2", 12), ("1,x", 12), ("1,2,", 14), ("b,1", 10)])
def test_comma_separated_colors_reject_bad_numbers(text, offset):
    with pytest.raises(GraphParseError) as info:
        parse_color_string(text, 10)
    assert info.value.offset == offset


def test_graph_line_roundtrip_uncolored():
    g = path_graph(4)
    assert parse_graph_line(format_graph_line(g)) == g


def test_graph_line_roundtrip_colored():
    cg = ColoredGraph(path_graph(3), (0, 1, 1))
    line = format_graph_line(cg)
    assert line == "Bg bww"
    assert parse_graph_line(line) == cg


def test_graph_line_rejects_bad_input():
    with pytest.raises(GraphParseError):
        parse_graph_line("")
    with pytest.raises(GraphParseError):
        parse_graph_line("Bg b")  # color length mismatch
    with pytest.raises(GraphParseError):
        parse_graph_line("Bg bww extra")


@pytest.mark.parametrize("line, offset", [("Cw w", 3), ("  Cw w", 5)])
def test_color_field_offset_is_after_the_graph6_field(line, offset):
    # the color string "w" also occurs inside the graph6 field "Cw"
    with pytest.raises(GraphParseError) as info:
        parse_graph_line(line)
    assert info.value.offset == offset


@pytest.mark.parametrize("line, offset", [
    ("A_ bb x", 6),
    (" A_  bb x", 8),
    ("A_\tbb\t\tx y", 7),
])
def test_extra_field_offset_is_where_the_field_starts(line, offset):
    with pytest.raises(GraphParseError, match="too many fields") as info:
        parse_graph_line(line)
    assert info.value.offset == offset
    assert line[offset] == "x"
