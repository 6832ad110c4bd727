#!/usr/bin/env python3
"""Sweep minimal-obstruction discovery across families and sizes.

For each requested family this runs the class's membership predicate
(GraphClass.member, polynomial for every family) over all graphs up to
--nmax, extracts the minimal non-members, and prints them with
their catalog names where known. Useful for spotting obstructions beyond
the shipped catalogs (for 2-threshold the catalog is a lower bound, not a
complete characterization).
"""

import argparse
import sys

from threshkit.classes import BY_FAMILY
from threshkit.cli import cmd_obstructions
from threshkit.limits import Limits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", nargs="*", default=list(BY_FAMILY),
                        choices=tuple(BY_FAMILY), metavar="FAMILY")
    parser.add_argument("--nmax", type=int, default=6)
    args = parser.parse_args()

    limits = Limits.from_env()
    for family in args.families:
        print(f"== {family} (n <= {args.nmax})")
        ns = argparse.Namespace(family=family, nmax=args.nmax)
        cmd_obstructions(ns, limits)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
