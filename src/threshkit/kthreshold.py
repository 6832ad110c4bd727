"""Colored elimination and recognizers for the k-threshold dialects.

Threshold graphs are the one-color dialect THRESHOLD, built with add and
join_all only: each step adds an isolated or a dominating vertex.

Elimination has two parts. The kernel, elimination_picks, works on raw
ints: the adjacency rows, the alive vertex mask and one vertex mask per
operator; it returns the removals or None. The certificate builder
_sequence turns them into a BuildSequence. eliminate(cg, dialect) and
is_threshold are the kernel plus the builder. The coloring searches hand
the kernel masks directly and build the sequence for the first coloring
that eliminates only. Every other threshold test (neighborhood_shape, the
switch search, the threshold class row) runs the kernel with the
THRESHOLD masks (0, alive) on a vertex mask and builds no graph.

Two searches cover the colorings. The polynomial one (two colors: the
special, restricted and extended dialects and is_k_threshold for k = 2)
tries at most 2n candidate colorings, each an int, its white class, from
which the kernel's masks come directly; only the hit becomes a coloring
tuple. The pruned one (is_k_threshold for k != 2) colors vertices 0, 1,
... depth first, numbering the colors by first use, and runs the kernel
on each prefix: every dialect's class is hereditary, so a prefix that
does not eliminate is never extended. Both return the least valid
coloring in product order.

extend_white_sets is the package's brute-force coloring oracle, carried
from graph to graph, for two colors: given the valid white classes of g
less its last vertex, in product order, it returns the first valid
coloring of g in product order, with g's own valid white classes for the
next graph that extends g. It and the polynomial search share one white
class trial, _white_hits. The tests check it against a per-coloring walk.
"""

from __future__ import annotations

from functools import cached_property

from .graphs import ColoredGraph, Graph, _components, bits
from .limits import DEFAULT_LIMITS, Limits
from .records import frozen
from .sequences import ADD, BLACK, JOIN_ALL, WHITE, BuildSequence, Op, Step, join_color

__all__ = [
    "Dialect",
    "general_dialect",
    "GENERAL2",
    "SPECIAL",
    "RESTRICTED",
    "EXTENDED",
    "THRESHOLD",
    "eliminate",
    "elimination_picks",
    "extend_white_sets",
    "is_k_threshold",
    "is_special",
    "is_restricted",
    "is_extended",
    "is_threshold",
    "neighborhood_shape",
    "is_good",
]


ADD_CODE = -1
JOIN_ALL_CODE = -2


@frozen
class Dialect:
    """An allowed operator set, listed in elimination preference order."""

    name: str
    k: int
    ops: tuple[Op, ...]

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """The ops as eliminate reads them: join color c as c, add as
        ADD_CODE and join_all as JOIN_ALL_CODE."""
        return tuple(ADD_CODE if op.kind == "add" else JOIN_ALL_CODE if op.kind == "join_all"
                     else op.color for op in self.ops)


def general_dialect(k: int) -> Dialect:
    if k < 1:
        raise ValueError("at least one color")
    return Dialect("general", k, (ADD,) + tuple(join_color(i) for i in range(k)))


GENERAL2 = general_dialect(2)
SPECIAL = Dialect("special", 2, (ADD, join_color(WHITE)))
RESTRICTED = Dialect("restricted", 2, (join_color(BLACK), join_color(WHITE)))
EXTENDED = Dialect("extended", 2, (ADD, join_color(BLACK), join_color(WHITE), JOIN_ALL))
THRESHOLD = Dialect("threshold", 1, (ADD, JOIN_ALL))


def elimination_picks(rows: tuple[int, ...], alive: int, masks) -> list[tuple[int, int]] | None:
    """The elimination kernel over raw ints: the removals, as (vertex, op
    index) pairs in removal order, that shrink alive to one vertex, or None.

    rows are the adjacency rows of the graph. Op i removes x when the alive
    neighbours of x are exactly the alive vertices of masks[i] other than x.
    Each step removes the lowest-index vertex some op removes, preferring
    earlier ops.
    """
    picks: list[tuple[int, int]] = []
    while alive & (alive - 1):
        left = alive
        while left:
            low = left & -left
            rest = alive ^ low
            row = rows[low.bit_length() - 1]
            # row has no bit of its own vertex, so this is
            # row & alive == mask & rest
            i = 0
            for mask in masks:
                if not (row ^ mask) & rest:
                    break
                i += 1
            else:
                left ^= low
                continue
            break
        else:
            return None
        picks.append((low.bit_length() - 1, i))
        alive ^= low
    return picks


def _sequence(dialect: Dialect, colors, full: int, picks: list[tuple[int, int]]) -> BuildSequence:
    """The certificate builder for an elimination: the build sequence that
    adds the one vertex of full that picks leave, then undoes picks, the
    (vertex, op index) removals, in reverse order."""
    seed = full
    for x, _ in picks:
        seed ^= 1 << x
    seed = seed.bit_length() - 1
    built = picks[::-1]
    steps = (Step(colors[seed], ADD),) + tuple(Step(colors[x], dialect.ops[i]) for x, i in built)
    return BuildSequence(dialect.k, steps, (seed,) + tuple(x for x, _ in built))


def _op_masks(dialect: Dialect, colors, full: int) -> list[int]:
    """The kernel's masks for a coloring."""
    by_color = [0] * dialect.k
    for v, c in enumerate(colors):
        by_color[c] |= 1 << v
    return _class_masks(dialect, by_color, full)


def _class_masks(dialect: Dialect, by_color: list[int], full: int) -> list[int]:
    """The kernel's masks from the color classes: none for add, all for
    join_all, the color class of c for join color c."""
    return [0 if code == ADD_CODE else full if code == JOIN_ALL_CODE else by_color[code]
            for code in dialect.codes]


def eliminate(cg: ColoredGraph, dialect: Dialect) -> BuildSequence | None:
    """Greedy reverse construction with the dialect's operators.

    Removes the lowest-index vertex eligible for some allowed operator,
    preferring earlier operators in the dialect's list. The class property is
    hereditary, so any eligible removal is safe; failure to find one is a
    correct rejection. The returned sequence evaluates back to cg exactly.
    This is the kernel elimination_picks followed by the certificate builder.
    """
    g, colors = cg.graph, cg.colors
    if max(colors) >= dialect.k:
        raise ValueError(f"colors exceed dialect color count {dialect.k}")
    full = g.full_mask
    picks = elimination_picks(g.rows, full, _op_masks(dialect, colors, full))
    return None if picks is None else _sequence(dialect, colors, full, picks)


def is_threshold(g: Graph) -> BuildSequence | None:
    """An {add, joinall} sequence evaluating back to g exactly, if threshold:
    the kernel with the THRESHOLD masks (0, full) plus the builder."""
    full = g.full_mask
    picks = elimination_picks(g.rows, full, (0, full))
    return None if picks is None else _sequence(THRESHOLD, (0,) * g.n, full, picks)


def _first_use_colorings(n: int, k: int) -> int:
    """The colorings of n vertices in at most k colors numbered by first use
    (restricted-growth strings): the sum of S(n, j) over j <= min(k, n)."""
    # ways[j]: the colorings of the vertices so far that use colors 0..j-1
    ways = [0, 1] + [0] * (min(k, n) - 1)
    for _ in range(n - 1):
        for j in range(len(ways) - 1, 0, -1):
            ways[j] = ways[j] * j + ways[j - 1]
    return sum(ways)


def _white_hits(g: Graph, dialect: Dialect, whites):
    """The white classes in whites, in order, whose 2-colorings of g the
    two-color dialect eliminates, each with the kernel's picks. Each
    candidate goes to the kernel as masks; no coloring is built."""
    rows, full = g.rows, g.full_mask
    for white in whites:
        # the color classes, BLACK (0) then WHITE (1)
        picks = elimination_picks(rows, full, _class_masks(dialect, [full ^ white, white], full))
        if picks is not None:
            yield white, picks


def _white_certificate(g: Graph, dialect: Dialect, white: int, picks):
    """A hit of _white_hits as a coloring and its sequence."""
    coloring = tuple(white >> v & 1 for v in range(g.n))
    return coloring, _sequence(dialect, coloring, g.full_mask, picks)


def extend_white_sets(
    g: Graph, dialect: Dialect, whites: list[int], whole: bool = True
) -> tuple[tuple[tuple[int, ...], BuildSequence] | None, list[int]]:
    """Oracle by prefix extension: the first coloring of g, in product
    order, that a two-color dialect eliminates, with its sequence, from
    whites, the white classes of the valid colorings of g less its last
    vertex v, in product order. Also returns the white classes of g's valid
    colorings in product order, or, without whole, up to the first only.

    Every dialect's class is hereditary, so a valid coloring of g is a
    valid coloring of the prefix with a color for v. The candidates, each
    prefix class with v black, then with v white, come in product order,
    and each goes to the kernel on the whole graph, so the first valid one
    is the first valid coloring of product order. The work is at most two
    kernel calls per prefix class, so no limit applies.
    """
    if dialect.k != 2:
        raise ValueError(f"extend_white_sets takes a two-color dialect, not {dialect.k} colors")
    bit = 1 << g.n - 1
    candidates = (white for prefix in whites for white in (prefix, prefix | bit))
    first, found = None, []
    for white, picks in _white_hits(g, dialect, candidates):
        found.append(white)
        if first is None:
            first = _white_certificate(g, dialect, white, picks)
            if not whole:
                break
    return first, found


def _candidate_white_sets(g: Graph, dialect: Dialect) -> set[int]:
    """The white classes of 2-colorings, one of which is the least valid
    coloring if any is, in product order and in ascending masks alike;
    each caller sorts them in the order it walks.

    Vertices removable under every coloring (isolated ones with add,
    universal ones with join_all) are dropped greedily; their colors are
    free. In what is left, H, the first removal of a valid coloring is a
    join_c of some vertex x, which forces every other vertex of H: its
    neighbours get c, the rest the other color. Setting the free colors
    (x and the dropped vertices) to BLACK keeps the coloring valid and
    clears bits of its white class, which makes it no greater in either
    order, so the least valid coloring is a candidate. Its white class is
    N(x) & rest for c = WHITE and rest minus N(x) for c = BLACK, where
    rest is H without x.

    A dialect that joins to both colors (all but SPECIAL) is closed under
    swapping them, so the candidates with vertex 0 WHITE are dropped: the
    least valid coloring in product order has vertex 0 BLACK, and so does
    every set the switch search wants.

    That search, switching.switch_to_threshold, is the second caller. By
    the paper's theorem the restricted 2-threshold graphs are the
    switching class of the threshold graphs: a coloring is valid for
    RESTRICTED exactly when the switch by its white class is threshold,
    since join_c of x becomes a dominating vertex when x has color c and
    an isolated one otherwise. So the least threshold switch set without
    vertex 0 is the least RESTRICTED candidate in ascending masks.
    """
    kinds = {op.kind for op in dialect.ops}
    alive = g.full_mask
    dropped = True
    while dropped and alive.bit_count() > 1:
        dropped = False
        for v in bits(alive):
            nb = g.rows[v] & alive
            if ("add" in kinds and nb == 0) or ("join_all" in kinds and nb == alive ^ (1 << v)):
                alive ^= 1 << v
                dropped = True
    if alive.bit_count() <= 1:
        return {0}
    joins = [op.color for op in dialect.ops if op.kind == "join_color"]
    swap_closed = set(joins) == {BLACK, WHITE}
    candidates = set()
    for x in bits(alive):
        rest = alive ^ (1 << x)
        nb = g.rows[x] & rest
        for c in joins:
            white = nb if c == WHITE else rest ^ nb
            if not (swap_closed and white & 1):
                candidates.add(white)
    return candidates


def _search_two_colored(g: Graph, dialect: Dialect) -> tuple[tuple[int, ...], BuildSequence] | None:
    """The least valid coloring in product order from at most 2n
    eliminations, so no limit applies."""
    # product order reads vertex 0 first: the bits of a white set reversed
    whites = sorted(_candidate_white_sets(g, dialect), key=lambda white: f"{white:0{g.n}b}"[::-1])
    for white, picks in _white_hits(g, dialect, whites):
        return _white_certificate(g, dialect, white, picks)
    return None


def is_k_threshold(
    g: Graph, k: int, limits: Limits = DEFAULT_LIMITS
) -> tuple[tuple[int, ...], BuildSequence] | None:
    """The least coloring, in product order, whose colored graph General(k)
    eliminates, with its sequence.

    General(k) is symmetric under permuting the colors, so numbering the
    colors by first use turns a valid coloring into a valid one that is no
    greater: the least valid coloring gives vertex 0 color 0 and each later
    vertex a color at most one above the highest before it. For k = 2 the
    polynomial two-color search finds it. For other k a pruned search
    tries only colorings numbered that way; the budget guards their number
    up front, and the search usually stops far below it.

    The search colors vertices 0, 1, ... depth first, each vertex trying
    its colors in increasing order, and runs the kernel with the prefix as
    alive after each vertex; it reads no bit outside alive, so this
    eliminates the colored subgraph induced on the prefix. Every dialect's
    class is hereditary, so a prefix that does not eliminate is never
    extended, and the full colorings reached come in product order. Colors
    numbered by first use stay below n, so the join of a color n or above,
    whose class is empty and whose mask equals add's, is left out: the work
    grows with n, not with k, and the sequence still has k colors.
    """
    if k == 2:
        return _search_two_colored(g, GENERAL2)
    rows, n, full = g.rows, g.n, g.full_mask
    used = min(k, n)
    dialect = Dialect("general", k, general_dialect(used).ops)
    count = _first_use_colorings(n, k)
    limits.require("coloring_budget", count, f"{count} colorings exceed")
    coloring = [0] * n
    by_color = [0] * used

    def extend(v: int, top: int):
        bit = 1 << v
        for c in range(min(top + 2, k)):
            coloring[v] = c
            by_color[c] |= bit
            picks = elimination_picks(rows, (bit << 1) - 1, _class_masks(dialect, by_color, full))
            if picks is not None:
                if v + 1 == n:
                    return tuple(coloring), _sequence(dialect, coloring, full, picks)
                found = extend(v + 1, max(top, c))
                if found is not None:
                    return found
            by_color[c] ^= bit
        return None

    return extend(0, -1)


def is_special(g: Graph):
    return _search_two_colored(g, SPECIAL)


def is_restricted(g: Graph):
    return _search_two_colored(g, RESTRICTED)


def is_extended(g: Graph):
    return _search_two_colored(g, EXTENDED)


EMPTY = "empty"
THRESHOLD_SHAPE = "threshold"
UNION_OF_TWO = "union_of_two_thresholds"
JOIN_OF_TWO = "join_of_two_thresholds"
OTHER = "other"


def _two_block_split(rows: tuple[int, ...], parts: list[int]) -> bool:
    """Can parts, vertex masks, be grouped into two blocks, each inducing a
    threshold graph under rows?

    Works for components (blocks are disjoint unions) and co-components
    (blocks are joins). Either way a threshold block holds at most one part
    with >= 2 vertices: two unioned nontrivial components contain a 2K2, two
    joined nontrivial co-components contain a C4. Singleton parts are
    isolated or universal in their block and never hurt, so the test reduces
    to: at least two parts, at most two nontrivial parts, every nontrivial
    part inducing a threshold graph.
    """
    if len(parts) < 2:
        return False
    nontrivial = [p for p in parts if p.bit_count() >= 2]
    if len(nontrivial) > 2:
        return False
    return all(elimination_picks(rows, p, (0, p)) is not None for p in nontrivial)


def neighborhood_shape(g: Graph, x: int) -> str:
    """Classify the subgraph induced by N(x); first matching shape wins."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} outside 0..{g.n - 1}")
    rows = g.rows
    nb = rows[x]
    if nb == 0:
        return EMPTY
    if elimination_picks(rows, nb, (0, nb)) is not None:
        return THRESHOLD_SHAPE
    if _two_block_split(rows, _components(rows, nb)):
        return UNION_OF_TWO
    # join blocks are unions of co-components; between co-components all
    # edges are present, so extra singleton co-components act as universal
    # vertices and the same reduction applies
    full = g.full_mask
    co_rows = [full ^ row ^ (1 << v) for v, row in enumerate(rows)]
    if _two_block_split(rows, _components(co_rows, nb)):
        return JOIN_OF_TWO
    return OTHER


def is_good(g: Graph) -> bool:
    return all(neighborhood_shape(g, x) != OTHER for x in range(g.n))
