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
is searched, and no group is listed element by element. The test suite
cross-checks the generator against an edge-subset baseline and against
the extensions of each level before dedup.

A finished level is kept packed, one integer per class: a 1 bit, then the
graph6 body (the upper triangle column by column, pair (0, j) first in
column j), then for a 2-colored class one bit per vertex, vertex 0 first.
Every code of a level has the same length, so integer order is the order of
the printed forms, and the leading 1 keeps the codes of different sizes
apart. The labeling search returns each child's code directly
(canonical._min_order packs the columns it picks), so generation labels the
rows of an extension without building it as a graph, relabeling it or
packing it, and a level never exists as objects: all_graphs and
all_colored_graphs return a re-iterable sequence that builds each Graph or
ColoredGraph as it is read. A class costs 8 bytes, where a cached Graph took
220 to 405. The twin masks of a class serve its orbit test and the labeling
of every one of its colorings, so they are computed once per class.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from functools import lru_cache
from typing import Callable, Iterable, Iterator

# the labeling search is read from its module at each call, so that a
# wrapper put there, such as a call counter, sees every labeling
from . import canonical
from .canonical import _twin_masks
from .embed import _automorphisms
from .graphs import ColoredGraph, Graph, _unchecked_colored, _unchecked_graph, bits
from .limits import DEFAULT_LIMITS, Limits
from .records import frozen

__all__ = [
    "EnumerationConfig",
    "all_graphs",
    "all_colored_graphs",
    "check_range",
]


@frozen
class EnumerationConfig:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")


def check_range(what: str, n_max: int, limits: Limits = DEFAULT_LIMITS) -> None:
    """Reject the sizes 1..n_max before any work: an empty range proves
    nothing, and a size above a bound raises CapacityError. The
    generator builds level n_max from those below, so this is its check."""
    if n_max < 1:
        raise ValueError(f"{what} needs a bound of at least 1, got {n_max}")
    n = min(n_max, limits.enumeration_max_n + 1)
    limits.require("enumeration_max_n", n, f"enumeration at n={n} exceeds")
    limits.require("canonical_max_n", n, f"canonical form on {n} vertices exceeds")


def _extended_rows(rows: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The rows of a graph plus one new highest-index vertex adjacent to mask."""
    new = 1 << len(rows)
    return tuple(row | new if mask >> v & 1 else row for v, row in enumerate(rows)) + (mask,)


def _twin_quotient(g: Graph, twins: list[int]) -> tuple[list[int], list[tuple[int, ...]]]:
    """(classes, automorphisms): the twin classes of g, read from its twin
    masks twins, as vertex masks, ordered by lowest vertex, and the
    automorphisms of the quotient graph on the classes that keep each
    class's size and kind (clique or independent set), other than the
    identity, as permutations of class indices.

    Every automorphism of g maps twin classes to twin classes, and any
    permutation within a class is one, so Aut(g) is the product of the
    symmetric groups of the classes extended by these quotient
    automorphisms. The quotient has few: a graph whose group is large
    owes most of it to twins (K8 bar has 40,320 automorphisms and one
    class).
    """
    classes = [t | 1 << u for u, t in enumerate(twins) if not t & ((1 << u) - 1)]
    rows = [g.rows[(cls & -cls).bit_length() - 1] for cls in classes]
    qrows = tuple(sum(1 << j for j, other in enumerate(classes) if other != cls and row & other)
                  for cls, row in zip(classes, rows))
    kinds = tuple(2 * cls.bit_count() + (row & cls != 0) for cls, row in zip(classes, rows))
    degrees = tuple(row.bit_count() for row in qrows)
    # the identity is the lexicographically first automorphism
    return classes, _automorphisms(qrows, degrees, kinds)[1:]


def _orbit_test(g: Graph, twins: list[int]) -> Callable[[int], bool]:
    """A test that accepts exactly one vertex set of each Aut(g)-orbit:
    the one that holds the lowest vertices of each twin class and whose
    vector of counts per class is the least of its orbit under the
    quotient automorphisms."""
    classes, automorphisms = _twin_quotient(g, twins)
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
    represents_orbit = _orbit_test(h, _twin_masks(h.n, h.rows))
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
def _reversed_bits(width: int) -> tuple[int, ...]:
    """_reversed_bits(w)[m]: the w-bit number m read from its low end."""
    return tuple(int(f"{m:0{width}b}"[::-1], 2) for m in range(1 << width))


@lru_cache(maxsize=None)
def _packing(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """For each column j of an n-vertex code: j, the mask of the vertices
    below j, and the table that puts them in graph6 order."""
    return tuple((j, (1 << j) - 1, _reversed_bits(j)) for j in range(1, n))


def _code(g: Graph | ColoredGraph) -> int:
    """The packed form of g, as in the module docstring; colors must be 0 or 1."""
    if isinstance(g, ColoredGraph):
        code = _code(g.graph)
        for c in g.colors:
            code = code << 1 | c
        return code
    code, rows = 1, g.rows
    for j, below, reverse in _packing(g.n):
        code = code << j | reverse[rows[j] & below]
    return code


def _prefix_code(code: int, n: int, colored: bool) -> int:
    """The code of what the first n - 1 vertices of an n-vertex code
    induce: the code less column n - 1 and, colored, less the last color."""
    if colored:
        return code >> 2 * n - 1 << n - 1 | (code & (1 << n) - 1) >> 1
    return code >> n - 1


@lru_cache(maxsize=None)
def _columns(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """For each column j of an n-vertex code, last column first: its shift,
    its mask, and what its bits add to the rows, row v in bits 64v..64v+63:
    the column's vertices to row j, and j to each of their rows."""
    out, shift = [], 0
    for j in range(n - 1, 0, -1):
        adds = []
        for column in range(1 << j):
            below = _reversed_bits(j)[column]
            adds.append(sum(1 << (64 * u + j) for u in bits(below)) | below << (64 * j))
        out.append((shift, (1 << j) - 1, tuple(adds)))
        shift += j
    return tuple(out)


@lru_cache(maxsize=None)
def _colorings(n: int) -> tuple[tuple[int, ...], ...]:
    """_colorings(n)[m]: the colors that m packs, vertex 0 in the top bit."""
    return tuple(tuple(m >> v & 1 for v in reversed(range(n))) for m in range(1 << n))


def _unpack(n: int, colored: bool, codes: Iterable[int]) -> Iterator:
    """The graphs, or the 2-colored graphs, that n-vertex codes pack."""
    columns, size, order = _columns(n), 8 * n, sys.byteorder
    colorings, low = (_colorings(n), (1 << n) - 1) if colored else (None, 0)
    for code in codes:
        if colored:
            colors = colorings[code & low]
            code >>= n
        lanes = 0
        for shift, mask, adds in columns:
            lanes += adds[code >> shift & mask]
        g = _unchecked_graph(n, tuple(memoryview(lanes.to_bytes(size, order)).cast("Q")))
        yield _unchecked_colored(g, colors) if colored else g


class _Level(Sequence):
    """The classes of one size as sorted codes; each item is built when it
    is read, so two reads give equal but distinct objects."""

    __slots__ = ("n", "colored", "codes")

    def __init__(self, n: int, colored: bool, codes: list[int]) -> None:
        self.n = n
        self.colored = colored
        # 8 bytes a class; a code fits up to 11 vertices, past any size
        # generation can reach
        self.codes = array("Q", codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int):
        return next(_unpack(self.n, self.colored, (self.codes[i],)))

    def __iter__(self):
        return _unpack(self.n, self.colored, self.codes)

    def position(self, code: int) -> int:
        """The index of the class whose code this is."""
        i = bisect_left(self.codes, code)
        if i == len(self.codes) or self.codes[i] != code:
            raise KeyError(f"no class on {self.n} vertices has code {code}")
        return i


@lru_cache(maxsize=None)
def _representatives(n: int) -> _Level:
    if n == 1:
        return _Level(1, False, [_code(Graph(1, (0,)))])
    min_order = canonical._min_order
    codes = {
        min_order(n, _extended_rows(h.rows, mask), None)[1]
        for h in _representatives(n - 1)
        for mask in _extension_masks(h)
    }
    return _Level(n, False, sorted(codes))


def all_graphs(cfg: EnumerationConfig, limits: Limits = DEFAULT_LIMITS) -> Sequence[Graph]:
    """Every isomorphism class on cfg.n vertices, canonical, sorted by form,
    as a re-iterable sequence that builds each graph as it is read. The
    2-colored classes come from all_colored_graphs."""
    check_range("enumeration", cfg.n, limits)
    return _representatives(cfg.n)


@lru_cache(maxsize=None)
def _colored_representatives(n: int) -> _Level:
    # The 2-colored classes over one class g are the Aut(g)-orbits of its
    # colorings, so one white set per orbit labels each class exactly once.
    found = []
    min_order = canonical._min_order
    for g in _representatives(n):
        twins = _twin_masks(n, g.rows)
        represents_orbit = _orbit_test(g, twins)
        for white in range(1 << n):
            if represents_orbit(white):
                colors = tuple(white >> v & 1 for v in range(n))
                found.append(min_order(n, g.rows, colors, twins)[1])
    found.sort()
    return _Level(n, True, found)


def all_colored_graphs(n: int, limits: Limits = DEFAULT_LIMITS) -> Sequence[ColoredGraph]:
    """Every 2-colored class, deduped color-preservingly, sorted by form, as
    a re-iterable sequence like all_graphs."""
    check_range("enumeration", n, limits)
    return _colored_representatives(n)
