"""Isomorph-free exhaustive generation of small graphs and 2-colored graphs.

The production generator extends each canonical (n-1)-vertex representative
h by a new vertex and dedups the children by canonical form, in the
canonical-augmentation style of McKay ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998) but with the dedup kept: a cheap
invariant rejects most children before any labeling. It keeps a neighbour
set only when the new vertex maximizes (degree, descending neighbour
degrees) in the child, and only one neighbour set per Aut(h)-orbit, so
about one child per class is labeled (1,299 labelings for the 1,251
classes with 2 to 7 vertices). The 2-colored classes over a class g are
the Aut(g)-orbits of its colorings, so one coloring per orbit labels each
exactly once. The groups come from the twin quotient: a permutation within
a twin class is an automorphism, so only the quotient graph on the classes
is searched, and no group is listed element by element. The edge-subset
baseline generator exists as the trivially correct oracle, raw_extensions
keeps every subset, and the test suite cross-checks them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import Callable

from .canonical import _check_size, _twin_masks, canonical_colored_graph, canonical_graph
from .embed import _automorphisms
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


def _twin_quotient(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """(classes, automorphisms): the twin classes of g as vertex masks,
    ordered by lowest vertex, and the automorphisms of the quotient graph
    on the classes that keep each class's size and kind (clique or
    independent set), other than the identity, as permutations of class
    indices.

    Every automorphism of g maps twin classes to twin classes, and any
    permutation within a class is one, so Aut(g) is the product of the
    symmetric groups of the classes extended by these quotient
    automorphisms. The quotient has few: a graph whose group is large
    owes most of it to twins (K8 bar has 40,320 automorphisms and one
    class).
    """
    classes = [t | 1 << u for u, t in enumerate(_twin_masks(g.n, g.rows)) if not t & ((1 << u) - 1)]
    rows = [g.rows[(cls & -cls).bit_length() - 1] for cls in classes]
    qrows = tuple(sum(1 << j for j, other in enumerate(classes) if other != cls and row & other)
                  for cls, row in zip(classes, rows))
    kinds = tuple(2 * cls.bit_count() + (row & cls != 0) for cls, row in zip(classes, rows))
    degrees = tuple(row.bit_count() for row in qrows)
    # the identity is the lexicographically first automorphism
    return classes, _automorphisms(qrows, degrees, kinds)[1:]


def _orbit_test(g: Graph) -> Callable[[int], bool]:
    """A test that accepts exactly one vertex set of each Aut(g)-orbit:
    the one that holds the lowest vertices of each twin class and whose
    vector of counts per class is the least of its orbit under the
    quotient automorphisms."""
    classes, automorphisms = _twin_quotient(g)
    shared = [cls for cls in classes if cls & (cls - 1)]

    def test(mask: int) -> bool:
        # an unchosen vertex of a class below a chosen one
        if any(cls & ~mask & ((1 << (mask & cls).bit_length()) - 1) for cls in shared):
            return False
        if not automorphisms:
            return True
        counts = [(mask & cls).bit_count() for cls in classes]
        return all([counts[i] for i in sigma] >= counts for sigma in automorphisms)

    return test


def _new_vertex_leads(h: Graph, mask: int, ties: int) -> bool:
    """Whether a new vertex adjacent to mask has a descending list of
    neighbour degrees no smaller than that of any vertex in ties, the
    vertices of h that match its degree in the child."""
    degrees = [d + (mask >> v & 1) for v, d in enumerate(h.degrees)]
    degrees.append(mask.bit_count())
    new = sorted((degrees[u] for u in bits(mask)), reverse=True)
    for v in bits(ties):
        row = h.rows[v] | (mask >> v & 1) << h.n
        if sorted((degrees[u] for u in bits(row)), reverse=True) > new:
            return False
    return True


def _extension_masks(h: Graph) -> list[int]:
    """Neighbour sets of a new vertex, one per Aut(h)-orbit, whose
    extensions of h still reach every isomorphism class that all 2^n of
    them reach.

    Every graph extends one of its vertex-deleted subgraphs by a vertex
    that maximizes an isomorphism invariant, here the degree and then the
    descending list of neighbour degrees. So the new vertex must maximize
    it in the child: no vertex of h has degree above |mask|, none of
    degree |mask| is chosen, and no vertex of the child's degree |mask| has
    a larger list. Masks in one orbit give isomorphic children with the new
    vertex in the same place, so these rules keep or drop whole orbits,
    and _orbit_test keeps one mask of each.
    """
    represents_orbit = _orbit_test(h)
    top = max(h.degrees)
    of_degree = [0] * (h.n + 1)
    for v, d in enumerate(h.degrees):
        of_degree[d] |= 1 << v
    out = []
    for mask in range(1 << h.n):
        k = mask.bit_count()
        if k < top or mask & of_degree[k] or not represents_orbit(mask):
            continue
        # the vertices of child degree k: unchosen of degree k, chosen of degree k - 1
        ties = of_degree[k] | mask & of_degree[k - 1]
        if not ties or _new_vertex_leads(h, mask, ties):
            out.append(mask)
    return out


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, (0,)),)
    # Canonical graphs are equal exactly when their rows are, so the dedup
    # keys cost no memory of their own, and the forms exist only while the
    # classes are sorted, after the dictionary is gone.
    seen: dict[tuple[int, ...], Graph] = {}
    for h in _representatives(n - 1):
        for mask in _extension_masks(h):
            canon = canonical_graph(_extend(h, mask), _LABELING)
            seen.setdefault(canon.rows, canon)
    graphs = list(seen.values())
    del seen
    graphs.sort(key=encode_graph6)
    return tuple(graphs)


def all_graphs(cfg: EnumerationConfig, limits: Limits = DEFAULT_LIMITS) -> tuple[Graph, ...]:
    """Every isomorphism class on cfg.n vertices, canonical, sorted by form.
    The 2-colored classes come from all_colored_graphs."""
    _check_bound(cfg.n, limits)
    return _representatives(cfg.n)


@lru_cache(maxsize=None)
def _colored_representatives(n: int) -> tuple[ColoredGraph, ...]:
    # The 2-colored classes over one class g are the Aut(g)-orbits of its
    # colorings, so one white set per orbit labels each class exactly once.
    found = []
    for g in _representatives(n):
        represents_orbit = _orbit_test(g)
        for white in range(1 << n):
            if represents_orbit(white):
                colors = tuple(white >> v & 1 for v in range(n))
                found.append(canonical_colored_graph(_unchecked_colored(g, colors), _LABELING))
    found.sort(key=format_graph_line)
    return tuple(found)


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
