"""Build sequences: linearized decomposition trees for colored graphs.

A sequence adds one vertex per step. The seed step's operator is ignored;
every later step attaches its vertex to the previously added vertices
according to its operator. The optional order field records which original
vertex each step realizes, so elimination certificates evaluate back to the
exact labeled graph they came from.
"""

from __future__ import annotations

from .graphs import ColoredGraph, Graph, bits
from .records import frozen

__all__ = [
    "BLACK",
    "WHITE",
    "Op",
    "ADD",
    "JOIN_ALL",
    "join_color",
    "Step",
    "BuildSequence",
    "evaluate",
    "format_sequence",
]

BLACK = 0
WHITE = 1


@frozen
class Op:
    kind: str  # "add" | "join_color" | "join_all"
    color: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("add", "join_color", "join_all"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if (self.kind == "join_color") != (self.color is not None):
            raise ValueError("join_color takes a color, other operators do not")


ADD = Op("add")
JOIN_ALL = Op("join_all")


def join_color(color: int) -> Op:
    return Op("join_color", color)


@frozen
class Step:
    color: int
    op: Op


@frozen
class BuildSequence:
    k: int
    steps: tuple[Step, ...]
    order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("at least one color")
        if not self.steps:
            raise ValueError("empty sequence")
        for step in self.steps:
            if not 0 <= step.color < self.k:
                raise ValueError(f"step color {step.color} outside 0..{self.k - 1}")
            op = step.op
            if op.kind == "join_color" and not 0 <= op.color < self.k:
                raise ValueError(f"join color {op.color} outside 0..{self.k - 1}")
        if self.order is not None and sorted(self.order) != list(range(len(self.steps))):
            raise ValueError("order is not a permutation of the steps")

    @property
    def n(self) -> int:
        return len(self.steps)


def evaluate(seq: BuildSequence) -> ColoredGraph:
    """Realize the sequence; vertex order[j] (default j) realizes step j."""
    n = seq.n
    order = seq.order if seq.order is not None else tuple(range(n))
    rows = [0] * n
    colors = [0] * n
    placed = 0
    by_color = [0] * seq.k
    for step, v in zip(seq.steps, order):
        if placed:
            op = step.op
            if op.kind == "add":
                new = 0
            elif op.kind == "join_all":
                new = placed
            else:
                new = by_color[op.color]
            rows[v] = new
            for u in bits(new):
                rows[u] |= 1 << v
        colors[v] = step.color
        placed |= 1 << v
        by_color[step.color] |= 1 << v
    return ColoredGraph(Graph(n, tuple(rows)), tuple(colors))


def _color_token(color: int, k: int) -> str:
    return "bw"[color] if k <= 2 else str(color)


def _op_token(op: Op, k: int) -> str:
    if op.kind == "add":
        return "add"
    if op.kind == "join_all":
        return "joinall"
    if k <= 2:
        return "joinb" if op.color == BLACK else "joinw"
    return f"join{op.color}"


def format_sequence(seq: BuildSequence) -> str:
    """One step per line: "seed <color>" then "<op> <color>"."""
    lines = [f"seed {_color_token(seq.steps[0].color, seq.k)}"]
    for step in seq.steps[1:]:
        lines.append(f"{_op_token(step.op, seq.k)} {_color_token(step.color, seq.k)}")
    return "\n".join(lines)
