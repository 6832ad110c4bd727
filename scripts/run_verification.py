#!/usr/bin/env python3
"""Run every verification suite and write one report file per suite.

Exit status is the number of failing suites, so a zero exit means every
characterization check agreed at desk scale.
"""

import argparse
import sys
from pathlib import Path

from threshkit.limits import Limits
from threshkit.verify import SUITE_NAMES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("reports"))
    parser.add_argument("--suites", nargs="*", default=list(SUITE_NAMES),
                        choices=SUITE_NAMES, metavar="SUITE")
    args = parser.parse_args()

    limits = Limits.from_env()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in args.suites:
        report = run_suite(name, limits=limits)
        path = args.out_dir / f"{name}.report.txt"
        path.write_text(report.to_text(), encoding="ascii")
        status = "ok" if report.ok else f"FAIL ({len(report.witnesses)} witnesses)"
        print(f"{name:12s} {status:24s} {report.elapsed:7.1f}s  -> {path}")
        failures += not report.ok
    return failures


if __name__ == "__main__":
    sys.exit(main())
