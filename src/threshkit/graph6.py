"""Bit-exact graph6 encoding plus the colored one-line text format."""

from __future__ import annotations

import re

from .graphs import ColoredGraph, Graph, MAX_VERTICES
from .limits import CapacityError

__all__ = [
    "GraphParseError",
    "encode_graph6",
    "decode_graph6",
    "color_string",
    "parse_color_string",
    "format_graph_line",
    "parse_graph_line",
]


class GraphParseError(ValueError):
    """Malformed graph text; offset is the byte position of the problem."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def encode_graph6(g: Graph) -> str:
    """Standard graph6: size header, then upper-triangle bits column by column."""
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(chr(63 + (g.n >> s & 63)) for s in (12, 6, 0))
    chunk = 0
    filled = 0
    body = []
    for v in range(1, g.n):
        col = g.rows[v]
        for u in range(v):
            chunk = (chunk << 1) | (col >> u & 1)
            filled += 1
            if filled == 6:
                body.append(chr(63 + chunk))
                chunk = filled = 0
    if filled:
        body.append(chr(63 + (chunk << (6 - filled))))
    return head + "".join(body)


def decode_graph6(text: str) -> Graph:
    if not text:
        raise GraphParseError("empty graph6 string", 0)
    for i, ch in enumerate(text):
        if not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"byte {ord(ch)} outside graph6 range", i)
    if text[0] == "~":
        if len(text) < 4:
            raise GraphParseError("truncated extended size header", len(text))
        if text[1] == "~":
            raise GraphParseError("8-byte size headers are not supported", 1)
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = text[4:]
        offset = 4
    else:
        n = ord(text[0]) - 63
        body = text[1:]
        offset = 1
    if n == 0:
        raise GraphParseError("graph on zero vertices", 0)
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 size {n} exceeds {MAX_VERTICES} vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphParseError(
            f"expected {need} body bytes for n={n}, got {len(body)}", offset + min(len(body), need)
        )
    stream = 0
    for ch in body:
        stream = (stream << 6) | (ord(ch) - 63)
    total = 6 * len(body)
    pad = total - n * (n - 1) // 2
    if pad and stream & ((1 << pad) - 1):
        raise GraphParseError("nonzero padding bits", offset + len(body) - 1)
    rows = [0] * n
    pos = total - 1
    for v in range(1, n):
        for u in range(v):
            if stream >> pos & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            pos -= 1
    return Graph(n, tuple(rows))


def color_string(colors: tuple[int, ...]) -> str:
    """'b'/'w' for two colors, one digit per vertex for up to ten, and
    comma-separated numbers past ten."""
    if all(c <= 1 for c in colors):
        return "".join("bw"[c] for c in colors)
    return ("" if max(colors) <= 9 else ",").join(str(c) for c in colors)


def parse_color_string(text: str, offset: int = 0) -> tuple[int, ...]:
    """The colors color_string spells: comma-separated numbers if the text
    has a comma, otherwise one 'b', 'w' or digit per vertex."""
    if "," in text:
        if not re.fullmatch(r"[0-9]+(,[0-9]+)*", text):
            at = re.match(r"([0-9]+,)*", text).end()
            raise GraphParseError(f"bad color number {text[at:].split(',')[0]!r}", offset + at)
        return tuple(map(int, text.split(",")))
    colors = []
    for i, ch in enumerate(text):
        if ch == "b":
            colors.append(0)
        elif ch == "w":
            colors.append(1)
        elif ch.isdigit():
            colors.append(int(ch))
        else:
            raise GraphParseError(f"bad color character {ch!r}", offset + i)
    if not colors:
        raise GraphParseError("empty color string", offset)
    return tuple(colors)


def format_graph_line(g: Graph | ColoredGraph) -> str:
    if isinstance(g, ColoredGraph):
        return f"{encode_graph6(g.graph)} {color_string(g.colors)}"
    return encode_graph6(g)


def parse_graph_line(line: str) -> Graph | ColoredGraph:
    """One graph per line: "<graph6>" or "<graph6> <colorstring>"."""
    fields = list(re.finditer(r"\S+", line))
    if not fields:
        raise GraphParseError("blank line", 0)
    if len(fields) > 2:
        raise GraphParseError("too many fields on line", fields[2].start())
    g = decode_graph6(fields[0].group())
    if len(fields) == 1:
        return g
    offset = fields[1].start()
    colors = parse_color_string(fields[1].group(), offset)
    if len(colors) != g.n:
        raise GraphParseError(f"color string length {len(colors)} does not match n={g.n}", offset)
    return ColoredGraph(g, colors)
