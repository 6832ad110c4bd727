"""Isomorph-free exhaustive generation of small graphs and 2-colored graphs.

The production generator extends each canonical (n-1)-vertex representative
by a new vertex and dedups by canonical form. It skips two kinds of
neighbor subsets whose extension is isomorphic to a kept one: those that
are not lowest-first within a twin class, and those that leave the new
vertex short of maximum degree; colorings are likewise sorted within twin
classes. The edge-subset baseline generator exists as the trivially correct
oracle, raw_extensions keeps every subset, and the test suite cross-checks
them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .canonical import _check_size, _twin_masks, canonical_colored_graph, canonical_graph
from .graph6 import encode_graph6, format_graph_line
from .graphs import MAX_VERTICES, ColoredGraph, Graph, _unchecked_colored, _unchecked_graph, bits
from .limits import DEFAULT_LIMITS, CapacityError, Limits
from .records import frozen

__all__ = [
    "EnumerationConfig",
    "all_graphs",
    "all_colored_graphs",
    "check_range",
    "baseline_graphs",
    "raw_extensions",
]


@frozen
class EnumerationConfig:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")


# The cached builders label at this bound: the callers' limits are checked
# before the cache, which is keyed by n alone.
_LABELING = Limits(canonical_max_n=MAX_VERTICES)


def _check_bound(n: int, limits: Limits) -> None:
    """The enumeration bound, then the canonical bound of the labeling."""
    if n > limits.enumeration_max_n:
        raise CapacityError(f"enumeration at n={n} exceeds bound {limits.enumeration_max_n}")
    _check_size(n, limits)


def check_range(what: str, n_max: int, limits: Limits = DEFAULT_LIMITS) -> None:
    """Reject the sizes 1..n_max before any work: an empty range proves
    nothing, and a size above a bound raises the generator's CapacityError."""
    if n_max < 1:
        raise ValueError(f"{what} needs a bound of at least 1, got {n_max}")
    _check_bound(min(n_max, limits.enumeration_max_n + 1), limits)


def _extend(g: Graph, mask: int) -> Graph:
    """g plus one new highest-index vertex adjacent to mask."""
    rows = list(g.rows)
    for v in bits(mask):
        rows[v] |= 1 << g.n
    rows.append(mask)
    return _unchecked_graph(g.n + 1, tuple(rows))


def _twin_classes(g: Graph) -> list[int]:
    """The twin classes of g with two or more vertices, as vertex masks."""
    return list({t | 1 << u for u, t in enumerate(_twin_masks(g.n, g.rows)) if t})


def _extension_masks(h: Graph) -> list[int]:
    """Neighbour sets of a new vertex whose extensions of h still reach
    every isomorphism class that all 2^n of them reach.

    Twins of h can be exchanged, so within each twin class the chosen
    vertices are the lowest of the class. Every graph extends one of its
    vertex-deleted subgraphs by a vertex of maximum degree, so the new
    vertex has maximum degree in the child: no vertex of h has degree
    above |mask|, and none of degree |mask| is chosen. Neither rule changes
    the other's verdict, because exchanging twins keeps every degree.
    """
    top = max(h.degrees)
    of_degree = [0] * (h.n + 1)
    for v, d in enumerate(h.degrees):
        of_degree[d] |= 1 << v
    classes = _twin_classes(h)
    out = []
    for mask in range(1 << h.n):
        k = mask.bit_count()
        if k < top or mask & of_degree[k]:
            continue
        # an unchosen vertex of a class below a chosen one
        if not any(cls & ~mask & ((1 << (mask & cls).bit_length()) - 1) for cls in classes):
            out.append(mask)
    return out


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    seen: dict[str, Graph] = {}
    for h in _representatives(n - 1):
        for mask in _extension_masks(h):
            canon = canonical_graph(_extend(h, mask), _LABELING)
            seen.setdefault(encode_graph6(canon), canon)
    return tuple(seen[form] for form in sorted(seen))


def all_graphs(cfg: EnumerationConfig, limits: Limits = DEFAULT_LIMITS) -> tuple[Graph, ...]:
    """Every isomorphism class on cfg.n vertices, canonical, sorted by form.
    The 2-colored classes come from all_colored_graphs."""
    _check_bound(cfg.n, limits)
    return _representatives(cfg.n)


def _twin_sorted_colorings(g: Graph) -> list[tuple[int, ...]]:
    """The 2-colorings of g that are non-decreasing within every twin
    class; exchanging twins turns any other coloring into one of these."""
    classes = _twin_classes(g)
    out = []
    for white in range(1 << g.n):
        # -chosen: the bits from the lowest white vertex of the class up
        if not any(cls & ~white & -(white & cls) for cls in classes):
            out.append(tuple(white >> v & 1 for v in range(g.n)))
    return out


@lru_cache(maxsize=None)
def _colored_representatives(n: int) -> tuple[ColoredGraph, ...]:
    seen: dict[str, ColoredGraph] = {}
    for g in _representatives(n):
        for colors in _twin_sorted_colorings(g):
            canon = canonical_colored_graph(_unchecked_colored(g, colors), _LABELING)
            seen.setdefault(format_graph_line(canon), canon)
    return tuple(seen[form] for form in sorted(seen))


def all_colored_graphs(n: int, limits: Limits = DEFAULT_LIMITS) -> tuple[ColoredGraph, ...]:
    """Every 2-colored class, deduped color-preservingly."""
    _check_bound(n, limits)
    return _colored_representatives(n)


def baseline_graphs(n: int, limits: Limits = DEFAULT_LIMITS) -> tuple[Graph, ...]:
    """Oracle generator: all edge subsets, deduped by canonical form."""
    _check_bound(n, limits)
    pairs = list(combinations(range(n), 2))
    seen: dict[str, Graph] = {}
    for picks in product((0, 1), repeat=len(pairs)):
        g = Graph.from_edges(n, [e for e, take in zip(pairs, picks) if take])
        canon = canonical_graph(g, limits)
        seen.setdefault(encode_graph6(canon), canon)
    return tuple(seen[form] for form in sorted(seen))


def raw_extensions(n: int, limits: Limits = DEFAULT_LIMITS) -> list[Graph]:
    """All extensions of the canonical (n-1)-level, before canonical dedup.

    Hits every isomorphism class on n vertices at least once, usually many
    times; useful when coverage matters but canonical dedup does not.
    """
    _check_bound(n, limits)
    if n == 1:
        return [Graph(1, (0,))]
    out = []
    for h in _representatives(n - 1):
        for mask in range(1 << h.n):
            out.append(_extend(h, mask))
    return out
