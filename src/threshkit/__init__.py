"""Recognition toolkit for threshold-like graph classes at desk scale."""

from .canonical import canonical_form, canonical_graph
from .graph6 import decode_graph6, encode_graph6, parse_graph_line
from .graphs import ColoredGraph, Graph, disjoint_union, is_distance_hereditary, join
from .kthreshold import (
    is_extended,
    is_good,
    is_k_threshold,
    is_restricted,
    is_special,
    is_threshold,
)
from .limits import DEFAULT_LIMITS, CapacityError, Limits
from .sequences import BuildSequence, evaluate
from .switching import switch, switch_to_threshold, switching_class

__all__ = [
    "Graph",
    "ColoredGraph",
    "BuildSequence",
    "Limits",
    "DEFAULT_LIMITS",
    "CapacityError",
    "canonical_form",
    "canonical_graph",
    "encode_graph6",
    "decode_graph6",
    "parse_graph_line",
    "disjoint_union",
    "join",
    "is_distance_hereditary",
    "is_threshold",
    "evaluate",
    "is_k_threshold",
    "is_special",
    "is_restricted",
    "is_extended",
    "is_good",
    "switch",
    "switching_class",
    "switch_to_threshold",
]
