"""Known-answer checks that do not call threshkit.

A member verdict is accepted only when its printed certificate replays,
through this benchmark's own builder, to exactly the input graph. A
non-member verdict is accepted only when networkx confirms an induced copy
of the catalogued obstruction printed. kthreshold prints none: its
non-members must contain an entry of the 2-threshold catalog, or fail a
brute-force search written here.
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher
from networkx.algorithms.threshold import is_threshold_graph

from cases import OPS, build, switch

# OEIS A000088, n = 1..7
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156, 1044)
# 2-colored graphs up to color-preserving isomorphism, n = 1..6
COLORED_COUNTS = (2, 6, 20, 90, 544, 5096)
CATALOG_SIZES = {
    "threshold": 3,
    "special2t": 8,
    "good": 5,
    "two_threshold_listed": 41,
    "partitioned2t": 25,
    "switch_threshold": 16,
    "switch_cograph": 4,
}
# recognize class -> catalog whose entries it may print as an obstruction
FIS_FAMILY = {
    "threshold": "threshold",
    "special": "special2t",
    "restricted": "switch_threshold",
    "switch-threshold": "switch_threshold",
    "switch-cograph": "switch_cograph",
    "partitioned": "partitioned2t",
    "kthreshold": "two_threshold_listed",
}


def to_nx(rows: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((u, v) for v, row in enumerate(rows) for u in range(v) if row >> u & 1)
    return g


def from_graph6(text: str) -> nx.Graph:
    return nx.from_graph6_bytes(text.encode("ascii"))


def load_catalogs(data_dir: Path) -> dict[str, dict[str, tuple[nx.Graph, list[int] | None]]]:
    """family -> name -> (graph, coloring or None), read from the TSV files."""
    out = {}
    for family in CATALOG_SIZES:
        entries = {}
        for line in (data_dir / f"{family}.tsv").read_text().splitlines():
            if not line.strip():
                continue
            name, g6, colors, _ = line.split("\t")
            entries[name] = (from_graph6(g6), None if colors == "-" else ["bw".index(c) for c in colors])
        out[family] = entries
    return out


def _is_cograph(g: nx.Graph) -> bool:
    if len(g) <= 1:
        return True
    if nx.is_connected(g):
        comp = nx.complement(g)
        if nx.is_connected(comp):
            return False
        parts = nx.connected_components(comp)
    else:
        parts = nx.connected_components(g)
    return all(_is_cograph(g.subgraph(p)) for p in parts)


def _replay_sequence(case: dict, detail: list[str]) -> str | None:
    """Rebuild the printed build sequence; None when it reproduces the input."""
    cls, rows = case["cls"], case["rows"]
    steps, coloring, order = [], None, None
    for piece in detail:
        head, _, rest = piece.partition(" ")
        if head == "coloring":
            coloring = ["bw".index(c) for c in rest]
        elif head == "order":
            order = [int(v) for v in rest.split(",")]
        else:
            steps.append((head, "bw".index(rest)))
    if order is None or len(steps) != len(rows) or sorted(order) != list(range(len(rows))):
        return "certificate lacks a full order"
    if steps[0][0] != "seed" or any(op not in OPS[cls] for op, _ in steps[1:]):
        return "certificate uses an operator outside the class"
    expected = case["colors"] if cls == "partitioned" else coloring
    if expected is not None and any(expected[v] != c for (_, c), v in zip(steps, order)):
        return "step colors differ from the coloring"
    if build([(c, op) for op, c in steps], order) != rows:
        return "certificate does not rebuild the input"
    return None


def _replay_switch(case: dict, detail: list[str]) -> str | None:
    fields = dict(piece.split(" ", 1) for piece in detail)
    members = fields.get("switch", "").removeprefix("set ")
    s = 0 if members == "-" else sum(1 << int(v) for v in members.split(","))
    target = from_graph6(fields["target"])
    if not nx.utils.graphs_equal(to_nx(switch(case["rows"], s)), target):
        return "switch set does not give the printed target"
    ok = is_threshold_graph(target) if case["cls"] == "switch-threshold" else _is_cograph(target)
    return None if ok else "printed target is not in the class"


def _check_embedding(case: dict, detail: list[str], catalogs) -> str | None:
    """The printed embedding must map the named catalog pattern onto an
    induced copy in the input, colors included for partitioned. threshkit
    holds the switch-threshold patterns as canonical relabelings of the
    catalog's graphs, so for those only the image is checked, up to
    isomorphism; for every other catalog the map itself is checked."""
    if len(detail) != 1:
        return "non-member without one obstruction line"
    words = detail[0].split()
    if len(words) != 4 or words[0] != "obstruction" or words[2] != "embedding":
        return "malformed obstruction line"
    name, emb = words[1], [int(v) for v in words[3].split(",")]
    family_name = FIS_FAMILY[case["cls"]]
    family = catalogs[family_name]
    base = name.removesuffix(":swapped")
    relabeled = family_name == "switch_threshold"
    if base in family:
        pattern, colors = family[base]
    elif relabeled:
        # a switching-class member that no catalog entry matches by form is
        # printed under its canonical graph6
        pattern, colors = from_graph6(base), None
        if not any(nx.is_isomorphic(pattern, g) for g, _ in family.values()):
            return f"pattern {name} is not in the switch-threshold catalog"
    else:
        return f"pattern {name} is not in the class's catalog"
    host = to_nx(case["rows"])
    if len(set(emb)) != len(emb) or len(emb) != len(pattern) or not all(0 <= v < len(host) for v in emb):
        return "embedding is not an injective map into the host"
    if relabeled:
        same = nx.is_isomorphic(host.subgraph(emb), pattern)
    else:
        same = all(host.has_edge(emb[i], emb[j]) == pattern.has_edge(i, j)
                   for i in range(len(emb)) for j in range(i))
    if not same:
        return f"embedding is not an induced copy of {name}"
    if colors is not None:
        if name.endswith(":swapped"):
            colors = [1 - c for c in colors]
        if [case["colors"][v] for v in emb] != colors:
            return f"embedding does not preserve the colors of {name}"
    return None


def _has_listed_obstruction(case: dict, catalogs) -> bool:
    host = to_nx(case["rows"])
    return any(
        GraphMatcher(host, pattern).subgraph_is_isomorphic()
        for pattern, _ in catalogs[FIS_FAMILY["kthreshold"]].values()
    )


def _is_two_threshold(rows: list[int]) -> bool:
    """Brute force over the 2-colorings with vertex 0 black: greedily remove
    a vertex that is isolated or adjacent to exactly the remaining vertices
    of one color. The class is hereditary, so any such removal is safe."""
    n = len(rows)
    full = (1 << n) - 1
    for white in range(0, 1 << n, 2):
        alive = full
        while alive & (alive - 1):
            for x in range(n):
                rest = alive & ~(1 << x)
                nb = rows[x] & alive
                if alive >> x & 1 and nb in (0, rest & white, rest & ~white):
                    alive = rest
                    break
            else:
                break
        if not alive & (alive - 1):
            return True
    return False


def check_recognize(case: dict, code: int, output: str, catalogs) -> str | None:
    """None when the call's verdict is confirmed, otherwise the reason."""
    if code not in (0, 1):
        return f"exit code {code}"
    lines = output.splitlines()
    verdict = "member" if code == 0 else "non-member"
    if not lines or lines[0] != f"{case['line']}: {verdict} ({case['cls']})":
        return "verdict line does not match the exit code"
    detail = [line.strip() for line in lines[1:]]
    if code == 0:
        if case["cls"].startswith("switch"):
            return _replay_switch(case, detail)
        return _replay_sequence(case, detail)
    if case["member"]:
        return "built member reported as non-member"
    if case["cls"] == "kthreshold":
        # the 2-threshold catalog lists the known obstructions with n <= 6
        # only, so a larger minimal obstruction needs the brute force
        if _has_listed_obstruction(case, catalogs) or not _is_two_threshold(case["rows"]):
            return None
        return "a 2-threshold graph reported as non-member"
    return _check_embedding(case, detail, catalogs)


def check_verify(passes: list[dict]) -> tuple[int, list[str]]:
    """Known answers for cold verify passes: (checks made, failed checks)."""
    made = 0
    failed = []

    def expect(what: str, got, want) -> None:
        nonlocal made
        made += 1
        if got != want:
            failed.append(f"{what}: got {got}, expected {want}")

    for p in passes:
        counts = p["counts"]
        for suite, ok in p["ok"].items():
            expect(f"suite {suite} ok", ok, True)
        for n, want in enumerate(GRAPH_COUNTS, 1):
            expect(f"counts enumeration.n{n}", counts["counts"].get(f"enumeration.n{n}"), want)
            for how in ("generated", "recognized"):
                expect(f"counts threshold.{how}.n{n}", counts["counts"].get(f"threshold.{how}.n{n}"), 1 << (n - 1))
        expect("colored class counts", p["colored_counts"], list(COLORED_COUNTS))
        for suite in ("thresholds", "special", "good", "switching"):
            expect(f"{suite} graphs.checked", counts[suite].get("graphs.checked"), sum(GRAPH_COUNTS))
        expect("partitioned graphs.checked", counts["partitioned"].get("graphs.checked"), sum(COLORED_COUNTS))
        expect("threshold members", counts["thresholds"].get("threshold.members"), (1 << len(GRAPH_COUNTS)) - 1)
        for family, size in CATALOG_SIZES.items():
            expect(f"catalog {family} entries", counts["catalogs"].get(f"catalog.{family}.entries"), size)
        expect("switching classes computed", counts["catalogs"].get("catalog.switch_threshold.computed"),
               CATALOG_SIZES["switch_threshold"])
        for suite, family in (("special", "special2t"), ("good", "good"), ("partitioned", "partitioned2t")):
            for side in ("found", "expected"):
                expect(f"{suite} rediscovered {side}", counts[suite].get(f"{suite}.obstructions.{side}"),
                       CATALOG_SIZES[family])
    return made, failed
