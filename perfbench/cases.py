"""Seeded inputs for the recognize workloads, built without threshkit.

Graphs are adjacency bitmask lists (rows[v] is the neighbour set of v).
Members are grown from each class's own operators by the few lines below,
so a member verdict is known before threshkit sees the graph, and the same
builder replays the certificates threshkit prints.
"""

from __future__ import annotations

import random

SIZES = range(8, 13)

# class -> extra CLI arguments; the order fixes the batch layout
CLASS_ARGS = {
    "threshold": [],
    "kthreshold": ["--k", "2"],
    "special": [],
    "restricted": [],
    "switch-threshold": [],
    "switch-cograph": [],
    "partitioned": [],
}

# operators each elimination class may print: (name, allowed op tokens)
BLACK, WHITE = 0, 1
OPS = {
    "threshold": ("add", "joinall"),
    "kthreshold": ("add", "joinb", "joinw"),
    "special": ("add", "joinw"),
    "restricted": ("joinb", "joinw"),
    "partitioned": ("add", "joinb", "joinw"),
}

# replicates of every (class, n) pair in one batch. One pass takes about
# 23 s at the seed commit; fewer cases let the tail cases a seed happens to
# draw move graph_ms.p50 and p99 by more than a tenth
REPLICATES = {"recognize-members": 90, "recognize-random": 40}


def build(steps: list[tuple[int, str]], order: list[int]) -> list[int]:
    """Replay (color, op) steps; step j places vertex order[j]."""
    n = len(steps)
    rows = [0] * n
    placed = 0
    by_color = [0, 0]
    for j, ((color, op), v) in enumerate(zip(steps, order)):
        if j and op != "add":
            new = placed if op == "joinall" else by_color[{"joinb": BLACK, "joinw": WHITE}[op]]
            rows[v] = new
            for u in range(n):
                if new >> u & 1:
                    rows[u] |= 1 << v
        placed |= 1 << v
        by_color[color] |= 1 << v
    return rows


def switch(rows: list[int], s: int) -> list[int]:
    """Seidel switch: toggle every pair with exactly one end in s."""
    n = len(rows)
    full = (1 << n) - 1
    return [row ^ ((full & ~s if s >> v & 1 else s) & ~(1 << v)) for v, row in enumerate(rows)]


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """Vertex v becomes perm[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        for u in range(len(rows)):
            if row >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def cograph(n: int, rng: random.Random) -> list[int]:
    """Merge random parts by disjoint union or join until one remains."""
    rows = [0] * n
    parts = [1 << v for v in range(n)]
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        if rng.random() < 0.5:
            for v in range(n):
                if a >> v & 1:
                    rows[v] |= b
                if b >> v & 1:
                    rows[v] |= a
        parts.append(a | b)
    return rows


def gnp(n: int, rng: random.Random) -> list[int]:
    rows = [0] * n
    for v in range(n):
        for u in range(v):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def encode_graph6(rows: list[int]) -> str:
    n = len(rows)
    bitlist = [rows[v] >> u & 1 for v in range(1, n) for u in range(v)]
    bitlist += [0] * (-len(bitlist) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bitlist[i:i + 6])), 2)) for i in range(0, len(bitlist), 6)
    )
    return chr(63 + n) + body


def _member(cls: str, n: int, rng: random.Random) -> tuple[list[int], list[int] | None]:
    """A member of cls on n vertices and, for partitioned, its coloring."""
    perm = list(range(n))
    rng.shuffle(perm)
    if cls == "switch-cograph":
        base = cograph(n, rng)
    else:
        ops = OPS["threshold" if cls == "switch-threshold" else cls]
        two = cls not in ("threshold", "switch-threshold")
        steps = [(rng.randrange(2) if two else 0, rng.choice(ops)) for _ in range(n)]
        base = build(steps, perm)
        if cls == "partitioned":
            colors = [0] * n
            for (color, _), v in zip(steps, perm):
                colors[v] = color
            return base, colors
        if not cls.startswith("switch"):
            return base, None
    rows = relabel(base, perm) if cls == "switch-cograph" else base
    return switch(rows, rng.getrandbits(n)), None


def generate(workload: str, seed: int) -> list[dict]:
    """The batch of one recognize workload: every (class, n) pair REPLICATES
    times, in seeded random order."""
    rng = random.Random(f"{workload}:{seed}")
    members = workload == "recognize-members"
    cases = []
    for _ in range(REPLICATES[workload]):
        for cls, extra in CLASS_ARGS.items():
            if cls == "partitioned" and not members:
                continue  # its input must carry a coloring
            for n in SIZES:
                rows, colors = _member(cls, n, rng) if members else (gnp(n, rng), None)
                line = encode_graph6(rows)
                if colors is not None:
                    line += " " + "".join("bw"[c] for c in colors)
                cases.append({
                    "cls": cls,
                    "args": ["recognize", "--class", cls] + extra,
                    "line": line,
                    "rows": rows,
                    "colors": colors,
                    "member": True if members else None,
                })
    rng.shuffle(cases)
    return cases

