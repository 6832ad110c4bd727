"""The classes of `threshkit recognize`, one row each.

A row holds everything the toolkit knows about a class, so adding a class
means adding a row. Rows call the recognizers through this module's
globals at call time, so a test or a tracer that replaces a module global
sees every call a row makes.
"""

from __future__ import annotations

from typing import Callable, Optional

from .canonical import canonical_form
from .catalogs import load_catalog
from .graph6 import color_string, encode_graph6
from .graphs import bits, is_distance_hereditary
from .kthreshold import (
    GENERAL2,
    OTHER,
    eliminate,
    elimination_picks,
    is_extended,
    is_good,
    is_k_threshold,
    is_restricted,
    is_special,
    is_threshold,
    neighborhood_shape,
)
from .limits import Limits
from .obstructions import (
    find_minimal_colored_obstructions,
    find_minimal_obstructions,
    recognize_good_fis,
    recognize_partitioned_fis,
    recognize_special_fis,
    recognize_switch_cograph_fis,
    recognize_switch_threshold_fis,
    recognize_threshold_fis,
)
from .records import frozen
from .sequences import format_sequence
from .switching import has_cograph_switch, is_switch_cograph, switch_to_threshold

__all__ = ["GraphClass", "ROWS", "BY_NAME", "BY_FAMILY", "BY_CATALOG"]


@frozen
class GraphClass:
    name: str  # the --class value
    recognize: Callable  # (graph, k, limits) -> certificate lines of a member, None otherwise
    fis: Optional[Callable] = None  # graph -> FisResult of the forbidden-subgraph scan
    family: Optional[str] = None  # the `obstructions --family` value
    member: Optional[Callable] = None  # graph -> membership at k = 2, for discovery and catalogs
    catalog: Optional[str] = None  # names the obstructions discovery finds
    colored: bool = False  # input is a 2-colored graph
    takes_k: bool = False  # recognize needs --k

    def find_obstructions(self, n_max: int, limits: Limits) -> list:
        """Discovery with member: the minimal obstructions with <= n_max vertices."""
        find = find_minimal_colored_obstructions if self.colored else find_minimal_obstructions
        return find(self.member, n_max, limits)

    def catalog_names(self, n_max: int, limits: Limits) -> dict[str, str]:
        """Canonical form -> entry name for the catalog entries with <= n_max
        vertices, the only ones an obstruction found up to n_max can match;
        {} when the row has no catalog."""
        if self.catalog is None:
            return {}
        return {canonical_form(e.obstruction, limits): e.name
                for e in load_catalog(self.catalog).entries if e.graph.n <= n_max}


def _sequence_lines(seq) -> list[str]:
    lines = format_sequence(seq).splitlines()
    if seq.order is not None:
        lines.append("order " + ",".join(str(v) for v in seq.order))
    return lines


def _coloring_and_sequence(result) -> Optional[list[str]]:
    if result is None:
        return None
    coloring, seq = result
    return [f"coloring {color_string(coloring)}"] + _sequence_lines(seq)


def _switch_cert_lines(cert) -> Optional[list[str]]:
    if cert is None:
        return None
    members = ",".join(str(v) for v in bits(cert.set)) or "-"
    return [f"switch set {members}", f"target {encode_graph6(cert.target)}"]


def _threshold(g, k, limits):
    seq = is_threshold(g)
    return None if seq is None else _sequence_lines(seq)


def _partitioned(cg, k, limits):
    seq = eliminate(cg, GENERAL2)
    return None if seq is None else _sequence_lines(seq)


def _good(g, k, limits):
    """is_good, with each vertex's shape computed once for the lines."""
    lines = []
    for x in range(g.n):
        shape = neighborhood_shape(g, x)
        if shape == OTHER:
            return None
        lines.append(f"vertex {x} neighborhood {shape}")
    return lines


ROWS = (
    GraphClass(
        "threshold",
        recognize=_threshold,
        fis=lambda g: recognize_threshold_fis(g),
        family="threshold",
        member=lambda g: elimination_picks(g.rows, g.full_mask, (0, g.full_mask)) is not None,
        catalog="threshold",
    ),
    GraphClass(
        "kthreshold",
        recognize=lambda g, k, limits: _coloring_and_sequence(is_k_threshold(g, k, limits)),
        family="kthreshold2",
        member=lambda g: is_k_threshold(g, 2) is not None,
        catalog="two_threshold_listed",
        takes_k=True,
    ),
    GraphClass(
        "special",
        recognize=lambda g, k, limits: _coloring_and_sequence(is_special(g)),
        fis=lambda g: recognize_special_fis(g),
        family="special",
        member=lambda g: is_special(g) is not None,
        catalog="special2t",
    ),
    # Restricted 2-threshold graphs are the switching class of threshold
    # graphs, so this class shares the switch-threshold catalog, the FIS
    # scan read from it and its candidate sets with the switch search; the
    # switch-threshold row, later in ROWS, validates the catalog.
    GraphClass(
        "restricted",
        recognize=lambda g, k, limits: _coloring_and_sequence(is_restricted(g)),
        fis=lambda g: recognize_switch_threshold_fis(g),
        family="restricted",
        member=lambda g: is_restricted(g) is not None,
        catalog="switch_threshold",
    ),
    GraphClass(
        "extended",
        recognize=lambda g, k, limits: _coloring_and_sequence(is_extended(g)),
        family="extended",
        member=lambda g: is_extended(g) is not None,
    ),
    GraphClass(
        "partitioned",
        recognize=_partitioned,
        fis=lambda cg: recognize_partitioned_fis(cg),
        family="partitioned",
        member=lambda cg: eliminate(cg, GENERAL2) is not None,
        catalog="partitioned2t",
        colored=True,
    ),
    GraphClass(
        "good",
        recognize=_good,
        fis=lambda g: recognize_good_fis(g),
        family="good",
        member=lambda g: is_good(g),
        catalog="good",
    ),
    GraphClass(
        "switch-threshold",
        recognize=lambda g, k, limits: _switch_cert_lines(switch_to_threshold(g)),
        fis=lambda g: recognize_switch_threshold_fis(g),
        family="switch-threshold",
        member=lambda g: switch_to_threshold(g) is not None,
        catalog="switch_threshold",
    ),
    GraphClass(
        "switch-cograph",
        recognize=lambda g, k, limits: _switch_cert_lines(has_cograph_switch(g)),
        fis=lambda g: recognize_switch_cograph_fis(g),
        family="switch-cograph",
        member=lambda g: is_switch_cograph(g),
        catalog="switch_cograph",
    ),
    GraphClass(
        "distance-hereditary",
        recognize=lambda g, k, limits: [] if is_distance_hereditary(g) else None,
    ),
)

BY_NAME = {row.name: row for row in ROWS}
BY_FAMILY = {row.family: row for row in ROWS if row.family is not None}
# a catalog two rows share is validated by the later row
BY_CATALOG = {row.catalog: row for row in ROWS if row.catalog is not None}
