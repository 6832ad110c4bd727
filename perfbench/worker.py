"""The process that runs threshkit for one benchmark step.

    worker.py ready                 import and warm up, print "ready", exit
    worker.py verify  [TRACE_STEM]  one cold pass of all seven suites
    worker.py recognize             passes over the cases read from stdin

Only this process imports threshkit, so its peak memory is the program's.
Results go to stdout as one JSON object. Intervals are reported as
[start, end] perf_counter marks; run.py scales them by the host speed that
hostspeed.py measured over the same interval in a process of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_SAMPLES = 1000  # so that at least ten calls lie beyond p99


def peak_rss_mb() -> float:
    """This process's peak resident memory. VmHWM belongs to the address
    space, which exec replaces; ru_maxrss would also count the parent's
    memory at the fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def ready() -> None:
    """What a recognize call needs before its first graph: the CLI, the
    catalogs and the forbidden-subgraph pattern tables."""
    import threshkit.cli  # noqa: F401
    from threshkit.graphs import ColoredGraph, Graph
    from threshkit import obstructions

    k1 = Graph(1, (0,))
    for recognize in (
        obstructions.recognize_threshold_fis,
        obstructions.recognize_special_fis,
        obstructions.recognize_good_fis,
        obstructions.recognize_switch_cograph_fis,
        obstructions.recognize_switch_threshold_fis,
    ):
        recognize(k1)
    obstructions.recognize_partitioned_fis(ColoredGraph(k1, (0,)))


def run_verify(trace_stem: str | None) -> dict:
    import threshkit
    import threshkit.verify as verify
    from threshkit.enumeration import all_colored_graphs

    tracer = None
    if trace_stem:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(threshkit)
    suite_s, counts, ok = {}, {}, {}
    start = perf_counter()
    for name in verify.SUITE_NAMES:
        before = perf_counter()
        report = verify.run_suite(name)
        suite_s[name] = (before, perf_counter())
        counts[name] = dict(report.counts)
        ok[name] = report.ok
    wall = (start, perf_counter())
    rss = peak_rss_mb()
    if tracer:
        tracer.uninstall()
        tracer.write(trace_stem)
    return {
        "wall": wall,
        "suite_s": suite_s,
        "counts": counts,
        "ok": ok,
        "colored_counts": [len(all_colored_graphs(n)) for n in range(1, 7)],
        "peak_rss_mb": rss,
    }


def _call(main, case: dict) -> tuple[tuple[float, float], int, str]:
    """One in-process `threshkit recognize` call: ([start, end] marks,
    exit code, stdout and stderr)."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(case["line"] + "\n")
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["args"])
    return (t0, perf_counter()), code, out.getvalue() + err.getvalue()


def run_recognize(job: dict) -> dict:
    """Closed loop: one call after another, pass after pass over the cases.

    The first pass's outputs are returned for checking; later passes must
    repeat them exactly. Untraced runs keep starting passes while the next
    one is expected to finish within the time given, and until there are
    MIN_SAMPLES calls. A traced run makes one untraced and one traced
    pass, so its work counts depend on the seed alone."""
    import threshkit
    import threshkit.cli as cli

    cases, seconds, trace_stem = job["cases"], job["seconds"], job.get("trace_stem")
    tracer = None
    if trace_stem:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(threshkit)
    ready()
    first: list[tuple[int, str]] = []
    passes: list[dict] = []  # wall, each call's [start, end]
    mismatched: list[int] = []  # case index of every repeat that differs
    start = perf_counter()
    while True:
        calls = []
        before = perf_counter()
        for i, case in enumerate(cases):
            marks, code, text = _call(cli.main, case)
            calls.append(marks)
            if not passes:
                first.append((code, text))
            elif first[i] != (code, text):
                mismatched.append(i)
        after = perf_counter()
        passes.append({"wall": (before, after), "calls": calls})
        if tracer:
            if len(passes) == 2:
                break
            tracer.uninstall()  # the second pass runs untraced
            continue
        samples = len(cases) * len(passes)
        if samples >= MIN_SAMPLES and (after - start) + (after - before) > seconds:
            break
    sys.stdin = sys.__stdin__
    result = {
        "passes": passes,
        "first": first,
        "mismatched": mismatched,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        tracer.write(trace_stem)
    return result


def main() -> int:
    mode = sys.argv[1]
    if mode == "ready":
        ready()
        print("ready", flush=True)
        return 0
    if mode == "verify":
        result = run_verify(sys.argv[2] if len(sys.argv) > 2 else None)
    elif mode == "recognize":
        result = run_recognize(json.load(sys.stdin))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
