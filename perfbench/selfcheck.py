#!/usr/bin/env python3
"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py

For each workload, two traced runs with seed 1, each in a process of its
own, must print the same SHA-256 of their generated inputs and report
identical work counts (every per-layer metric named *.calls, *.classes,
*_per_call or *_ratio). Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

SEED = 1
COUNT_SUFFIXES = (".calls", ".classes", "_per_call", "_ratio")


def traced_run(workload: str) -> tuple[str | None, dict]:
    """(the printed inputs digest, None for verify; the work counts)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next((line for line in lines if line.startswith("inputs sha256 ")), None)
    metrics = json.loads(lines[-1])["metrics"]
    return digest, {k: v["value"] for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def main() -> int:
    bad = 0
    for workload in WORKLOADS:
        (digest_a, a), (digest_b, b) = traced_run(workload), traced_run(workload)
        if workload != "verify":
            same = digest_a is not None and digest_a == digest_b
            bad += not same
            print(f"{workload}: inputs {'identical' if same else 'DIFFER'} ({digest_a}; {digest_b})")
        differ = sorted(k for k in a if a[k] != b.get(k))
        bad += bool(differ)
        print(f"{workload}: {len(a)} work counts {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
