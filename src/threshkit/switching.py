"""Seidel switching, switching classes, threshold and cograph switch search.

Switching by a vertex set toggles every pair with one end in the set
(Seidel, "A survey of two-graphs", 1976); a set and its complement give
the same graph, so the switch sets here leave vertex 0 out. Cographs are
the P4-free graphs (Seinsche, 1974). switch_to_threshold, which rests on
the restricted 2-threshold graphs being the switching class of the
threshold graphs, and has_cograph_switch, which keeps its extension rule
incrementally, find the first threshold and the first cograph switch in
ascending masks in polynomial time. extend_switch_sets, the switching
suite's brute-force oracle, finds both from the switch sets of g less its
last vertex; the tests check all three against a scan of every switch
set. Every switch set is tested on switched rows and vertex masks, and a
Graph is built only for a certificate that is returned. Only the walk
over the switching class, all 2^(n-1) switch sets, is guarded by the
coloring budget.
"""

from __future__ import annotations

from typing import Sequence

from .canonical import canonical_form
from .graphs import Graph, _unchecked_graph
from .kthreshold import RESTRICTED, _candidate_white_sets, elimination_picks
from .limits import DEFAULT_LIMITS, Limits
from .records import frozen

__all__ = [
    "switch",
    "switching_class",
    "SwitchCertificate",
    "extend_switch_sets",
    "switch_to_threshold",
    "is_cograph",
    "is_switch_cograph",
    "has_cograph_switch",
]


def switch(g: Graph, s: int) -> Graph:
    """Toggle every pair with one endpoint in s and the other outside."""
    if s & ~g.full_mask:
        raise ValueError("switch set outside the graph")
    return _unchecked_graph(g.n, _switched_rows(g.rows, g.full_mask, s))


def _switched_rows(rows: Sequence[int], full: int, s: int) -> tuple[int, ...]:
    """The rows of the switch by s, a subset of full: a vertex in s toggles
    its pairs with full ^ s, one outside toggles its pairs with s, and
    neither set holds the vertex itself."""
    out = [row ^ s for row in rows]
    while s:
        low = s & -s
        s ^= low
        out[low.bit_length() - 1] ^= full
    return tuple(out)


def _require_switch_sets(g: Graph, limits: Limits) -> None:
    """The coloring budget guard of a walk over the 2^(n-1) switch sets."""
    limits.require("coloring_budget", 1 << max(0, g.n - 1), f"2^{g.n - 1} switch sets exceed")


@frozen
class SwitchCertificate:
    set: int
    target: Graph


def extend_switch_sets(
    g: Graph, family: tuple[list[int], list[int]], whole: bool = True
) -> tuple[tuple[SwitchCertificate | None, SwitchCertificate | None], tuple[list[int], list[int]]]:
    """Oracle by prefix extension: the first cograph switch and the first
    threshold switch of g (ascending masks, vertex 0 excluded), from
    family, the cograph and the threshold switch sets of g less its last
    vertex v, vertex 0 excluded, in ascending masks. Also returns g's
    family in ascending masks, or, without whole, only as far as the walk
    goes before both answers are settled.

    The switch of g by a set S induces on the prefix its switch by S less
    v, and the cograph and threshold graphs are hereditary, so S is a
    cograph switch exactly when S less v is one and no induced P4 passes
    through v, and a threshold switch exactly when, besides, S less v is
    one and the threshold kernel accepts the switch. The candidates, each
    prefix cograph set with v outside, then each with v inside, come in
    ascending masks. The work is at most two switches per prefix set, so no
    limit applies.
    """
    n, rows, full = g.n, g.rows, g.full_mask
    v = n - 1
    cographs, thresholds = family
    below = set(thresholds)
    cograph = threshold = None
    found_cographs, found_thresholds = [], []
    for side in (0, 1 << v) if v else (0,):
        for prefix in cographs:
            s = prefix | side
            switched = _switched_rows(rows, full, s)
            if _adds_p4(switched, switched[v]):
                continue
            found_cographs.append(s)
            if cograph is None:
                cograph = SwitchCertificate(s, _unchecked_graph(n, switched))
            if prefix in below and elimination_picks(switched, full, (0, full)) is not None:
                found_thresholds.append(s)
                if threshold is None:
                    threshold = SwitchCertificate(s, _unchecked_graph(n, switched))
            # both answers are settled at the first threshold switch, or at
            # the first cograph switch when the prefix has no threshold one
            if not whole and (threshold is not None or not below):
                return (cograph, threshold), (found_cographs, found_thresholds)
    return (cograph, threshold), (found_cographs, found_thresholds)


def switch_to_threshold(g: Graph) -> SwitchCertificate | None:
    """First switch set (ascending masks, vertex 0 excluded) giving a threshold graph.

    At most n + 1 switches instead of 2^(n-1): the sets are the white
    classes of the restricted coloring search's candidates, tried in
    ascending order (see kthreshold._candidate_white_sets). Each goes to
    the threshold kernel as switched rows; only the hit becomes a Graph.
    The search is polynomial, so no limit applies.
    """
    rows, full = g.rows, g.full_mask
    for s in sorted(_candidate_white_sets(g, RESTRICTED)):
        switched = _switched_rows(rows, full, s)
        if elimination_picks(switched, full, (0, full)) is not None:
            return SwitchCertificate(s, _unchecked_graph(g.n, switched))
    return None


def switching_class(g: Graph, limits: Limits = DEFAULT_LIMITS) -> tuple[str, ...]:
    """Sorted canonical forms of all switches of g (vertex 0 kept outside
    s), from all 2^(n-1) switches, which the budget guards up front."""
    _require_switch_sets(g, limits)
    return tuple(sorted({canonical_form(switch(g, s), limits) for s in range(0, 1 << g.n, 2)}))


def is_cograph(g: Graph) -> bool:
    """No induced P4: cographs are exactly the P4-free graphs."""
    return not _p4(g.rows)


def _p4(rows: Sequence[int]) -> int:
    """The vertex mask of an induced P4 a-b-c-d of the graph with these
    rows, or 0 if it has none.

    For each edge bc, a runs over N(b) minus N[c] and d over N(c) minus
    N[b], two disjoint sets; any a with a non-neighbour d closes a P4.
    """
    for b, rb in enumerate(rows):
        later = rb >> b + 1 << b + 1
        while later:
            low = later & -later
            later ^= low
            rc = rows[low.bit_length() - 1]
            ends = rc & ~rb & ~(1 << b)
            if ends:
                starts = rb & ~rc & ~low
                while starts:
                    a = starts & -starts
                    d = ends & ~rows[a.bit_length() - 1]
                    if d:
                        return a | 1 << b | low | d & -d
                    starts ^= a
    return 0


def is_switch_cograph(g: Graph) -> bool:
    """Some switch of g is a cograph.

    Equivalent to: the switch isolating vertex 0 is a cograph. A cograph
    switch rules out the cogem (P4 + K1) throughout the switching class, so
    the switch in which vertex 0 is isolated has no P4 either.
    """
    return not _p4(_switched_rows(g.rows, g.full_mask, g.rows[0]))


def _adds_p4(adj: list[int], nb: int) -> bool:
    """Whether a vertex u joined to nb, a vertex set of the graph with rows
    adj, lies on an induced P4: u-a-b-r or r-u-a-b up to reversal, with a
    in nb, b in N(a) outside nb, and r outside N[a] in just one of nb and
    N(b). With nb = adj[j] it tests the P4s through j, which is no b or r.
    """
    left = nb
    while left:
        a = left & -left
        left ^= a
        row = adj[a.bit_length() - 1]
        far = row & ~nb
        while far:
            b = far & -far
            far ^= b
            if (adj[b.bit_length() - 1] ^ nb) & ~row:
                return True
    return False


def _p4_through_both(adj: list[int], decided: int, nu: int, nj: int, joined: bool) -> bool:
    """Whether a P4 passes through both of two vertices u and j added to
    the graph with rows adj on the vertex set decided: u joined to nu and j
    to nj, both subsets of decided, and u to j when joined. With the
    neighbours of u only, of j only and of both as A, B and C, and the
    vertices of decided next to neither as R, up to reversal the P4 is
    a-u-j-d (a in A, d in B, a and d apart), u-j-c-d or j-u-c-d (c in B or
    A, d in R) when u and j are joined, and u-c-j-d or j-c-u-d (c in C, d
    in A or B apart from c) or u-a-d-j (a in A, d in B, a and d joined)
    when they are not.
    """
    only_u, only_j = nu & ~nj, nj & ~nu
    if joined:
        apart = decided & ~(nu | nj)
        left = only_u | only_j
        while left:
            c = left & -left
            left ^= c
            row = adj[c.bit_length() - 1]
            if row & apart or c & only_u and only_j & ~row:
                return True
        return False
    ends = only_u | only_j
    left = nu & nj
    while left:
        c = left & -left
        left ^= c
        if ends & ~adj[c.bit_length() - 1]:
            return True
    left = only_u
    while left:
        a = left & -left
        left ^= a
        if adj[a.bit_length() - 1] & only_j:
            return True
    return False


def has_cograph_switch(g: Graph) -> SwitchCertificate | None:
    """First switch of g that is a cograph, if any, in ascending masks
    (vertex 0 excluded), in polynomial time.

    A non-member costs one switch and one P4 test. A member's set is
    decided greedily, vertex n - 1 first and vertex 1 last, each left out
    unless the extension rule then fails. The rule, for a set t on the
    decided vertices D that induces no P4 on D less the vertex j just
    decided: no P4 goes through j, and every undecided vertex u has a side
    that adds none, where the sides are u joined to its trace on D (u
    outside the set) or to the rest of D (u inside).

    The rule is kept incrementally. Each undecided vertex keeps its trace
    under the set so far and which of its two sides survive, that is add
    no P4. A side that adds a P4 keeps adding it as D grows, since the
    switch on D stays the same. So j's own surviving side for t is the
    test of the P4s through j, and when it passes, a surviving side of u
    gains a P4 only through both u and j: O(n) bit operations a side, and
    O(n^3) in all.

    Proved: the rule is necessary, so a vertex goes in only when no cograph
    switch that agrees on the decided vertices leaves it out, and each step
    keeps the decided vertices P4-free, so a returned set is the least
    cograph switch. Checked, not proved: the rule is sufficient, so one
    choice always passes; it agrees with brute-force completion on every
    state of every switch-cograph graph with n <= 9 (check_extension_rule
    in tests/test_switching.py). A step where neither choice passes raises
    RuntimeError.
    """
    if not is_switch_cograph(g):
        return None
    rows = g.rows
    # the switch by s on D, as rows of the decided vertices; for each
    # undecided vertex its trace on D and its surviving sides, bit 0 for
    # outside the set and bit 1 for inside
    adj = [0] * g.n
    trace = [row & 1 for row in rows]
    sides = [3] * g.n
    s, decided = 0, 1
    for j in range(g.n - 1, 0, -1):
        for inside in (0, 1):
            if not sides[j] >> inside & 1:
                continue
            nj = decided ^ trace[j] if inside else trace[j]
            kept = []
            for u in range(1, j):
                # whether u outside the set is joined to j
                joined = (rows[u] >> j ^ inside) & 1
                out = trace[u]
                alive = sides[u]
                if alive & 1 and _p4_through_both(adj, decided, out, nj, joined):
                    alive ^= 1
                if alive & 2 and _p4_through_both(adj, decided, decided ^ out, nj, not joined):
                    alive ^= 2
                if not alive:
                    break
                kept.append((alive, out | joined << j))
            else:
                break
        else:
            raise RuntimeError(f"the extension rule admits no choice for vertex {j} after set {s}")
        bit = 1 << j
        if inside:
            s |= bit
        for u, (alive, side) in enumerate(kept, 1):
            sides[u], trace[u] = alive, side
        adj[j] = nj
        left = nj
        while left:
            low = left & -left
            left ^= low
            adj[low.bit_length() - 1] |= bit
        decided |= bit
    return SwitchCertificate(s, switch(g, s))
