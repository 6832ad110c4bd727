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
from contextlib import nullcontext
from typing import Optional

from .classes import BY_FAMILY, BY_NAME, ROWS
from .graph6 import GraphParseError, encode_graph6, format_graph_line, parse_graph_line
from .graphs import ColoredGraph
from .limits import CapacityError, Limits
from .obstructions import FisResult
from .switching import switch
from .verify import SUITE_NAMES, run_suite, suite_bound

OK, NON_MEMBER, USAGE, DISAGREE, CAPACITY = 0, 1, 2, 3, 4


class UsageError(Exception):
    pass


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
    cls, row = args.cls, BY_NAME[args.cls]
    if row.takes_k and args.k is None:
        raise UsageError(f"--k is required for class {cls}")
    if not row.takes_k and args.k is not None:
        raise UsageError("--k only applies to class " + ", ".join(r.name for r in ROWS if r.takes_k))
    fis = row.fis
    method = args.method
    if method is None:
        method = "both" if fis is not None else "elimination"
    if method in ("fis", "both") and fis is None:
        raise UsageError(f"class {cls} has no forbidden-subgraph recognizer; use --method elimination")

    exit_code = OK
    for line in _read_lines(args.input):
        g = parse_graph_line(line)
        if isinstance(g, ColoredGraph) != row.colored:
            need = "needs '<graph6> <colorstring>'" if row.colored else "takes uncolored"
            raise UsageError(f"class {cls} {need} input")
        # the colored class is 2-colored, and a scan would not notice a third color
        if row.colored and max(g.colors) > 1:
            raise UsageError(f"class {cls} takes colors b and w only")

        if method == "fis":
            res = fis(g)
            member = res.accepted
            detail = _fis_lines(res)
        else:
            # the constructive side first; only kthreshold with k >= 3 is budgeted, and has no FIS
            certificate = row.recognize(g, args.k, limits)
            member, detail = certificate is not None, certificate or []
            if method == "both":
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
    # checked before the open, so that a refused run leaves an existing file
    # as it was; opened before the suite runs, so that an unwritable path
    # fails before any suite work
    n_max = suite_bound(args.suite, args.nmax, limits)
    with open(args.out, "w", encoding="ascii") if args.out else nullcontext() as out:
        report = run_suite(args.suite, n_max, limits)
        text = report.to_text()
        if out is not None:
            out.write(text)
    sys.stdout.write(text)
    return OK if report.ok else NON_MEMBER


def cmd_obstructions(args, limits: Limits) -> int:
    row = BY_FAMILY[args.family]
    # discovery first, so that a bad bound fails before any other work
    found = row.find_obstructions(args.nmax, limits)
    names = row.catalog_names(args.nmax, limits)
    # discovery returns canonical graphs, so a graph6 line is already the
    # canonical form and labeling them again would repeat its work
    forms = [format_graph_line(g) for g in found]

    catalogued = 0
    for form in forms:
        name = names.get(form)
        catalogued += name is not None
        print(f"{form}\t{name if name else 'UNCATALOGUED'}")
    print(f"found {len(forms)} minimal obstructions with n <= {args.nmax}, {catalogued} catalogued")
    return OK


def _parse_switch_set(text: str, n: int) -> int:
    if text.strip() in ("", "-"):
        return 0
    mask, offset = 0, 0
    for token in text.split(","):
        try:
            v = int(token)
        except ValueError:
            raise GraphParseError(f"switch vertex {token!r} is not an integer", offset) from None
        if not 0 <= v < n:
            raise GraphParseError(f"switch vertex {v} outside 0..{n - 1}", offset)
        mask |= 1 << v
        offset += len(token) + 1
    return mask


def cmd_switch(args, limits: Limits) -> int:
    exit_code = OK
    for line in _read_lines(args.input):
        g = parse_graph_line(line)
        if isinstance(g, ColoredGraph):
            raise UsageError("switch takes uncolored input")
        if args.set == "search":
            certificate = BY_NAME["switch-threshold"].recognize(g, None, limits)
            if certificate is None:
                print(f"{line}: none")
                exit_code = NON_MEMBER
            else:
                print(f"{line}: " + "; ".join(certificate))
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
    p.add_argument("--class", dest="cls", required=True, choices=tuple(BY_NAME))
    p.add_argument("--method", choices=("fis", "elimination", "both"), default=None)
    p.add_argument("--k", type=int, default=None, help="color count for class kthreshold")
    p.add_argument("--input", default="-", help="file of graph lines, or - for stdin")

    p = sub.add_parser("verify", help="run a verification suite and print its report")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--out", default=None, help="also write the report to this file")

    p = sub.add_parser("obstructions", help="discover minimal obstructions for a family")
    p.add_argument("--family", required=True, choices=tuple(BY_FAMILY))
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
