"""Command-line surface: recognize, verify, obstructions, switch.

Exit codes are a contract: 0 ok or member, 1 non-member or suite failure,
2 parse or usage error or a file that cannot be opened, 3 method
disagreement, 4 capacity exceeded.
Inputs come from a file or standard input, one graph per line, either
"<graph6>" or "<graph6> <colorstring>".
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from .catalogs import load_catalog
from .graph6 import GraphParseError, color_string, encode_graph6, parse_graph_line
from .graphs import ColoredGraph, bits, is_distance_hereditary
from .kthreshold import (
    eliminate,
    general_dialect,
    is_extended,
    is_good,
    is_k_threshold,
    is_restricted,
    is_special,
    neighborhood_shape,
)
from .limits import CapacityError, Limits
from .obstructions import (
    FisResult,
    find_minimal_colored_obstructions,
    find_minimal_obstructions,
    recognize_good_fis,
    recognize_partitioned_fis,
    recognize_special_fis,
    recognize_switch_cograph_fis,
    recognize_switch_threshold_fis,
    recognize_threshold_fis,
)
from .canonical import canonical_colored_form, canonical_form
from .sequences import format_sequence
from .switching import has_cograph_switch, is_switch_cograph, switch, switch_to_threshold
from .threshold import build_threshold_tree, is_threshold
from .verify import SUITE_NAMES, run_suite

OK, NON_MEMBER, USAGE, DISAGREE, CAPACITY = 0, 1, 2, 3, 4

CLASSES = (
    "threshold",
    "kthreshold",
    "special",
    "restricted",
    "extended",
    "partitioned",
    "good",
    "switch-threshold",
    "switch-cograph",
    "distance-hereditary",
)

COLORED_CLASSES = ("partitioned",)


class UsageError(Exception):
    pass


def _sequence_lines(seq) -> list[str]:
    lines = format_sequence(seq).splitlines()
    if seq.order is not None:
        lines.append("order " + ",".join(str(v) for v in seq.order))
    return lines


def _coloring_and_sequence(result) -> list[str]:
    if result is None:
        return []
    coloring, seq = result
    return [f"coloring {color_string(coloring)}"] + _sequence_lines(seq)


def _switch_cert_lines(cert) -> list[str]:
    members = ",".join(str(v) for v in bits(cert.set)) or "-"
    return [f"switch set {members}", f"target {encode_graph6(cert.target)}"]


def _recognize_elimination(cls: str, g, k: Optional[int], limits: Limits):
    """Constructive verdict: (member, certificate lines)."""
    if cls == "threshold":
        cert = is_threshold(g)
        if cert is None:
            return False, []
        return True, _sequence_lines(build_threshold_tree(g))
    if cls == "kthreshold":
        return (lambda r: (r is not None, _coloring_and_sequence(r)))(is_k_threshold(g, k, limits))
    if cls == "special":
        return (lambda r: (r is not None, _coloring_and_sequence(r)))(is_special(g, limits))
    if cls == "restricted":
        return (lambda r: (r is not None, _coloring_and_sequence(r)))(is_restricted(g, limits))
    if cls == "extended":
        return (lambda r: (r is not None, _coloring_and_sequence(r)))(is_extended(g, limits))
    if cls == "partitioned":
        seq = eliminate(g, general_dialect(2))
        return (seq is not None), ([] if seq is None else _sequence_lines(seq))
    if cls == "good":
        if not is_good(g):
            return False, []
        shapes = [f"vertex {x} neighborhood {neighborhood_shape(g, x)}" for x in range(g.n)]
        return True, shapes
    if cls == "switch-threshold":
        cert = switch_to_threshold(g, limits)
        return (cert is not None), ([] if cert is None else _switch_cert_lines(cert))
    if cls == "switch-cograph":
        cert = has_cograph_switch(g, limits)
        return (cert is not None), ([] if cert is None else _switch_cert_lines(cert))
    if cls == "distance-hereditary":
        return is_distance_hereditary(g), []
    raise UsageError(f"unknown class {cls!r}")


_FIS_RECOGNIZERS: dict[str, Callable] = {
    "threshold": recognize_threshold_fis,
    "special": recognize_special_fis,
    "restricted": recognize_switch_threshold_fis,
    "partitioned": recognize_partitioned_fis,
    "good": recognize_good_fis,
    "switch-threshold": recognize_switch_threshold_fis,
    "switch-cograph": recognize_switch_cograph_fis,
}


def _fis_lines(res: FisResult) -> list[str]:
    if res.accepted:
        return ["no induced obstruction"]
    embedding = ",".join(str(v) for v in res.embedding)
    return [f"obstruction {res.pattern} embedding {embedding}"]


def _read_lines(path: str) -> list[str]:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, encoding="ascii") as fh:
            raw = fh.read()
    return [line for line in raw.splitlines() if line.strip()]


def cmd_recognize(args, limits: Limits) -> int:
    cls = args.cls
    if cls == "kthreshold" and args.k is None:
        raise UsageError("--k is required for class kthreshold")
    if cls != "kthreshold" and args.k is not None:
        raise UsageError("--k only applies to class kthreshold")
    fis = _FIS_RECOGNIZERS.get(cls)
    method = args.method
    if method is None:
        method = "both" if fis is not None else "elimination"
    if method in ("fis", "both") and fis is None:
        raise UsageError(f"class {cls} has no forbidden-subgraph recognizer; use --method elimination")

    exit_code = OK
    for line in _read_lines(args.input):
        g = parse_graph_line(line)
        colored = isinstance(g, ColoredGraph)
        if colored and cls not in COLORED_CLASSES:
            raise GraphParseError(f"class {cls} takes uncolored input")
        if not colored and cls in COLORED_CLASSES:
            raise GraphParseError(f"class {cls} needs '<graph6> <colorstring>' input")

        detail: list[str] = []
        if method == "fis":
            res = fis(g)
            member = res.accepted
            detail = _fis_lines(res)
        elif method == "elimination":
            member, detail = _recognize_elimination(cls, g, args.k, limits)
        else:
            # the constructive side first, so a capacity error precedes the FIS scan
            member, detail = _recognize_elimination(cls, g, args.k, limits)
            res = fis(g)
            if member != res.accepted:
                print(f"{line}: DISAGREEMENT elimination={member} fis={res.accepted}")
                return DISAGREE
            if not member:
                detail = _fis_lines(res)
        print(f"{line}: {'member' if member else 'non-member'} ({cls})")
        for piece in detail:
            print(f"  {piece}")
        if not member:
            exit_code = NON_MEMBER
    return exit_code


def cmd_verify(args, limits: Limits) -> int:
    report = run_suite(args.suite, args.nmax, limits)
    text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return OK if report.ok else NON_MEMBER


FAMILY_TABLE: dict[str, tuple[str, Optional[str]]] = {
    # family -> (member kind, catalog name or None)
    "threshold": ("threshold", "threshold"),
    "special": ("special", "special2t"),
    "good": ("good", "good"),
    "kthreshold2": ("kthreshold2", "two_threshold_listed"),
    "partitioned": ("partitioned", "partitioned2t"),
    "restricted": ("restricted", "switch_threshold"),
    "extended": ("extended", None),
    "switch-threshold": ("switch-threshold", "switch_threshold"),
    "switch-cograph": ("switch-cograph", "switch_cograph"),
}


def _family_member(kind: str, limits: Limits):
    if kind == "threshold":
        return lambda g: is_threshold(g) is not None
    if kind == "special":
        return lambda g: is_special(g, limits) is not None
    if kind == "good":
        return is_good
    if kind == "kthreshold2":
        return lambda g: is_k_threshold(g, 2, limits) is not None
    if kind == "restricted":
        return lambda g: is_restricted(g, limits) is not None
    if kind == "extended":
        return lambda g: is_extended(g, limits) is not None
    if kind == "switch-threshold":
        return lambda g: switch_to_threshold(g, limits) is not None
    if kind == "switch-cograph":
        return is_switch_cograph
    raise UsageError(f"no brute-force recognizer for family {kind!r}")


def cmd_obstructions(args, limits: Limits) -> int:
    kind, catalog_name = FAMILY_TABLE[args.family]
    names: dict[str, str] = {}
    if catalog_name is not None:
        cat = load_catalog(catalog_name)
        for e in cat.entries:
            if e.coloring is None:
                names[canonical_form(e.graph, limits)] = e.name
            else:
                names[canonical_colored_form(e.colored_graph, limits)] = e.name

    if kind == "partitioned":
        dialect = general_dialect(2)
        found = find_minimal_colored_obstructions(
            lambda cg: eliminate(cg, dialect) is not None, args.nmax, limits
        )
        keyed = [(canonical_colored_form(cg, limits), cg) for cg in found]
    else:
        member = _family_member(kind, limits)
        found = find_minimal_obstructions(member, args.nmax, limits)
        keyed = [(canonical_form(g, limits), g) for g in found]

    catalogued = 0
    for form, g in keyed:
        name = names.get(form)
        catalogued += name is not None
        print(f"{form}\t{name if name else 'UNCATALOGUED'}")
    print(f"found {len(keyed)} minimal obstructions with n <= {args.nmax}, {catalogued} catalogued")
    return OK


def _parse_switch_set(text: str, n: int) -> int:
    if text.strip() in ("", "-"):
        return 0
    mask = 0
    for token in text.split(","):
        v = int(token)
        if not 0 <= v < n:
            raise GraphParseError(f"switch vertex {v} outside 0..{n - 1}")
        mask |= 1 << v
    return mask


def cmd_switch(args, limits: Limits) -> int:
    exit_code = OK
    for line in _read_lines(args.input):
        g = parse_graph_line(line)
        if isinstance(g, ColoredGraph):
            raise GraphParseError("switch takes uncolored input")
        if args.set == "search":
            cert = switch_to_threshold(g, limits)
            if cert is None:
                print(f"{line}: none")
                exit_code = NON_MEMBER
            else:
                print(f"{line}: " + "; ".join(_switch_cert_lines(cert)))
        else:
            mask = _parse_switch_set(args.set, g.n)
            print(encode_graph6(switch(g, mask)))
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshkit",
        description="Recognizers and desk-scale verification for threshold-like graph classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="classify graphs and print certificates")
    p.add_argument("--class", dest="cls", required=True, choices=CLASSES)
    p.add_argument("--method", choices=("fis", "elimination", "both"), default=None)
    p.add_argument("--k", type=int, default=None, help="color count for class kthreshold")
    p.add_argument("--input", default="-", help="file of graph lines, or - for stdin")

    p = sub.add_parser("verify", help="run a verification suite and print its report")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--out", default=None, help="also write the report to this file")

    p = sub.add_parser("obstructions", help="discover minimal obstructions for a family")
    p.add_argument("--family", required=True, choices=tuple(FAMILY_TABLE))
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("switch", help="apply a switch set or search for a threshold switch")
    p.add_argument("--set", required=True, help='comma-separated vertices, or "search"')
    p.add_argument("--input", default="-", help="file of graph lines, or - for stdin")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    dispatch = {
        "recognize": cmd_recognize,
        "verify": cmd_verify,
        "obstructions": cmd_obstructions,
        "switch": cmd_switch,
    }
    try:
        return dispatch[args.command](args, Limits.from_env())
    except (GraphParseError, UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return CAPACITY


if __name__ == "__main__":
    sys.exit(main())
