"""Shared hypothesis strategies and tiny oracles for the test suite."""

from collections import deque
from itertools import product
from typing import Iterable, Sequence

import hypothesis.strategies as st

from threshkit.graphs import ColoredGraph, Graph, bits, disjoint_union, join
from threshkit.kthreshold import THRESHOLD
from threshkit.sequences import ADD, BuildSequence, Step, evaluate
from threshkit.switching import switch


def complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are the non-edges of g."""
    full = g.full_mask
    return Graph(g.n, tuple(full ^ row ^ 1 << v for v, row in enumerate(g.rows)))


def graph_from_mask(n: int, mask: int) -> Graph:
    """Edge-subset encoding: bit (i,j), i < j, in column-major pair order."""
    edges = []
    k = 0
    for j in range(n):
        for i in range(j):
            if mask >> k & 1:
                edges.append((i, j))
            k += 1
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


@st.composite
def gnp_graphs(draw, min_n=1, max_n=7):
    """G(n, p): each pair an edge with probability p, for a drawn p."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9)))
    rnd = draw(st.randoms(use_true_random=False))
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rnd.random() < p])


@st.composite
def colored_graphs(draw, min_n=1, max_n=6, k=2):
    g = draw(graphs(min_n, max_n))
    colors = draw(st.tuples(*[st.integers(0, k - 1)] * g.n))
    return ColoredGraph(g, colors)


def random_member(rnd, dialect, n):
    """The colored graph of a random n-step build sequence of the dialect."""
    steps = [Step(rnd.randrange(dialect.k), ADD)]
    for _ in range(n - 1):
        steps.append(Step(rnd.randrange(dialect.k), rnd.choice(dialect.ops)))
    return evaluate(BuildSequence(dialect.k, tuple(steps)))


def random_switch_cograph(rnd, n):
    """A random cograph on n vertices, built by unions and joins, relabeled
    and switched by a random set: a switch-cograph member."""
    parts = [Graph(1, (0,))] * n
    while len(parts) > 1:
        i = rnd.randrange(len(parts) - 1)
        combine = join if rnd.random() < 0.5 else disjoint_union
        parts[i : i + 2] = [combine(parts[i], parts[i + 1])]
    order = list(range(n))
    rnd.shuffle(order)
    g = parts[0].relabel(order)
    return switch(g, rnd.getrandbits(n) & g.full_mask)


@st.composite
def cographs_with_a_flip(draw, min_n=1, max_n=14):
    """A random cograph built by unions and joins, relabeled, then with
    one vertex pair toggled when the flag drawn says so."""
    parts = [Graph(1, (0,))] * draw(st.integers(min_n, max_n))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        combine = join if draw(st.booleans()) else disjoint_union
        parts[i : i + 2] = [combine(parts[i], parts[i + 1])]
    g = parts[0].relabel(draw(st.permutations(range(parts[0].n))))
    if g.n >= 2 and draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        rows = list(g.rows)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        g = Graph(g.n, tuple(rows))
    return g


@st.composite
def switched_threshold_graphs(draw, min_n=1, max_n=12):
    """A random threshold graph, relabeled, then switched by a random set:
    a member of the switching class of threshold graphs."""
    n = draw(st.integers(min_n, max_n))
    g = random_member(draw(st.randoms(use_true_random=False)), THRESHOLD, n).graph
    g = g.relabel(draw(st.permutations(range(n))))
    return switch(g, draw(st.integers(0, g.full_mask)))


def prefix_colorings(n, k):
    """The colorings the earlier is_k_threshold tried for k != 2, in order:
    base-k counter order, vertex 0 fixed to color 0, colors used in prefix."""
    for tail in product(range(k), repeat=n - 1):
        coloring = (0,) + tail
        top = max(coloring)
        if set(coloring) == set(range(top + 1)):
            yield coloring


@st.composite
def permutations_of(draw, n):
    return tuple(draw(st.permutations(range(n))))


def bfs_distances(g: Graph, src: int, mask: int) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in bits(g.rows[u] & mask):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def distance_hereditary_oracle(g: Graph) -> bool:
    """Definition check: connected induced subgraphs preserve distances."""
    full = [bfs_distances(g, v, g.full_mask) for v in range(g.n)]
    for mask in range(1, 1 << g.n):
        verts = list(bits(mask))
        if len(verts) < 3:
            continue
        for u in verts:
            inside = bfs_distances(g, u, mask)
            if len(inside) != len(verts):
                break  # induced subgraph disconnected, not constrained
            for v in verts:
                if inside[v] != full[u][v]:
                    return False
    return True


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the 0/1 matrix whose rows are the bits of the given ints."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                rank += 1
                break
            row ^= pivot
    return rank


def cutrank_profile(g: Graph, order: Sequence[int]) -> int:
    """Maximum GF(2) cutrank over the prefixes of a vertex order."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    best = 0
    placed = 0
    for v in order[:-1]:
        placed |= 1 << v
        rest = g.full_mask ^ placed
        rank = gf2_rank(g.rows[u] & rest for u in bits(placed))
        if rank > best:
            best = rank
    return best
