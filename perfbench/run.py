#!/usr/bin/env python3
"""threshkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a threshkit checkout; the program is imported from
its src/ directory. With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run. Every verdict threshkit gives is checked against an answer
known without it (see checks.py); the exit code is 1 when any check fails.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import checks  # noqa: E402
from hostspeed import Sampler, scaled  # noqa: E402

WORKLOADS = ("verify", "recognize-members", "recognize-random")
SETUP_STARTS = 15  # fresh interpreters per run; setup_s is their median
MIN_VERIFY_PASSES = 2
DEADLINE_S = 170  # every run must end within 180 s


class BenchError(Exception):
    pass


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU. The
    machine's CPUs drift in speed each on their own, so the host-speed
    sampler must share the worker's CPU to measure its speed."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control: unpinned
        pass


def worker(args: list[str], deadline: float, stdin: str | None = None) -> dict:
    """Run worker.py to completion and return its JSON result."""
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            input=stdin, capture_output=True, text=True, timeout=left, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the run's deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def setup_marks(deadline: float) -> list[tuple[float, float]]:
    """[start, end] of each of SETUP_STARTS fresh interpreters, from start
    to recognize-ready. Byte-code caching is on, as for an installed
    package, and one unmeasured start comes first, so that the caches
    exist."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    marks = []
    for _ in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "ready"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        line = ""
        try:
            if select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))[0]:
                line = proc.stdout.readline()
            marks.append((t0, perf_counter()))
        finally:
            proc.stdout.close()
            if line.strip() != "ready":
                proc.kill()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"setup start failed with exit code {code}")
    return marks[1:]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_verify(args, deadline: float, out_stem: str | None) -> dict:
    """Cold passes, each in a fresh worker. A traced run makes one untraced
    and one traced pass; otherwise passes repeat while the next is expected
    to end within --seconds, and at least MIN_VERIFY_PASSES run."""
    passes: list[dict] = []
    start = perf_counter()
    if out_stem:
        passes.append(worker(["verify"], deadline))
        traced = worker(["verify", out_stem], deadline)
        return {"passes": passes + [traced], "timed": passes, "traced": traced}
    while True:
        passes.append(worker(["verify"], deadline))
        spent = perf_counter() - start
        last = passes[-1]["wall"][1] - passes[-1]["wall"][0]
        if len(passes) >= MIN_VERIFY_PASSES and spent + last > args.seconds:
            break
    return {"passes": passes, "timed": passes}


def inputs_digest(cases: list[dict]) -> str:
    return hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()


def run_recognize(args, deadline: float, out_stem: str | None) -> dict:
    batch = cases.generate(args.workload, args.seed)
    digest = inputs_digest(batch)
    job = {"cases": [{"args": c["args"], "line": c["line"]} for c in batch], "seconds": args.seconds}
    if out_stem:
        job["trace_stem"] = out_stem
    result = worker(["recognize"], deadline, stdin=json.dumps(job))
    result["cases"] = batch
    result["digest"] = digest
    return result


def apply_speed(result: dict, sampler: Sampler) -> None:
    """Replace every [start, end] pair of the workers' passes by (seconds,
    probe time over that interval)."""
    for p in result["passes"]:
        p["wall"] = sampler.interval(*p["wall"])
        if "calls" in p:
            p["calls"] = [sampler.call(*c) for c in p["calls"]]
        if "suite_s" in p:
            p["suite_s"] = {k: sampler.interval(*v) for k, v in p["suite_s"].items()}


def check(workload: str, result: dict) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, failure descriptions)."""
    if workload == "verify":
        made, failures = checks.check_verify(result["passes"])
        return made, len(failures), failures
    catalogs = checks.load_catalogs(ROOT / "src" / "threshkit" / "data")
    passes = len(result["passes"])
    failed, failures = 0, []
    for i, (case, (code, output)) in enumerate(zip(result["cases"], result["first"])):
        try:
            reason = checks.check_recognize(case, code, output, catalogs)
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable output ({exc!r})"
        repeats_differ = result["mismatched"].count(i)
        if reason:
            failures.append(f"{case['cls']} {case['line']}: {reason}")
            failed += passes  # its repeats either match a wrong answer or differ
        elif repeats_differ:
            failures.append(f"{case['cls']} {case['line']}: {repeats_differ} repeated calls gave other output")
            failed += repeats_differ
    return len(result["cases"]) * passes, failed, failures


def end_to_end(workload: str, result: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(metrics at the reference speed, the same as measured). Each time is
    scaled by the host-speed probe over its own interval, a latency by the
    probes nearest its call."""
    def both(values):
        values = list(values)
        return {"ref": [scaled(*v) for v in values], "raw": [v[0] for v in values]}

    setup_s = {k: statistics.median(v) for k, v in both(setup).items()}

    if workload == "verify":
        timed = result["timed"]
        wall = both(p["wall"] for p in timed)
        graphs = sum(c.get("graphs.checked", 0) for c in timed[0]["counts"].values())
        checked = {s: c["graphs.checked"] for s, c in timed[0]["counts"].items() if c.get("graphs.checked")}
        # ms per checked graph of each enumerating suite, median over passes
        per_graph = {"ref": [], "raw": []}
        for suite, count in checked.items():
            times = both((1000 * p["suite_s"][suite][0] / count, p["suite_s"][suite][1]) for p in timed)
            for key, values in times.items():
                per_graph[key].append(statistics.median(values))
        p50 = {k: statistics.median(v) for k, v in per_graph.items()}
        p99 = {k: max(v) for k, v in per_graph.items()}
        rss = statistics.median(p["peak_rss_mb"] for p in timed)
    else:
        passes = result["passes"]
        wall = both(p["wall"] for p in passes)
        graphs = len(result["cases"])
        ms = both((1000 * t, probe_s) for p in passes for t, probe_s in p["calls"])
        p50 = {k: statistics.median(v) for k, v in ms.items()}
        p99 = {k: percentile(v, 0.99) for k, v in ms.items()}
        rss = result["peak_rss_mb"]
    out = []
    for i, key in enumerate(("ref", "raw")):
        w = statistics.median(wall[key])
        out.append({
            "setup_s": (setup_s[key], "s"),
            "wall_s": (w, "s"),
            "graphs_per_s": (graphs / w, "1/s"),
            "graph_ms.p50": (p50[key], "ms"),
            "graph_ms.p99": (p99[key], "ms"),
            "peak_rss_mb": (rss, "MB"),
        })
    return out[0], out[1]


SEARCHES = ("kthreshold.is_k_threshold", "kthreshold.is_special", "kthreshold.is_restricted",
            "kthreshold.is_extended")
SWITCH_SEARCHES = ("switching.switch_to_threshold", "switching.has_cograph_switch")


def per_layer(workload: str, result: dict, out_stem: str) -> dict:
    """Per-layer metrics of a traced run. Self times are scaled by the
    host-speed probe of the traced pass, like the end-to-end times."""
    with open(out_stem + ".json", encoding="ascii") as fh:
        summary = json.load(fh)["summary"]
    fns = summary["functions"]
    if workload == "verify":
        untraced = result["timed"][0]
        traced, plain = result["traced"]["wall"], untraced["wall"]
    else:
        untraced = None
        traced, plain = (p["wall"] for p in result["passes"])
    probe_s = traced[1]

    def f(names, key="calls"):
        names = (names,) if isinstance(names, str) else names
        return sum(fns.get(n, {}).get(key, 0) for n in names)

    def layer(name, key):
        return sum(v[key] for k, v in fns.items() if k.split(".")[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    fis = [n for n in fns if n.startswith("obstructions.recognize_")]
    searches, switch_searches = f(SEARCHES), f(SWITCH_SEARCHES)
    m = {
        "canonical.calls": (layer("canonical", "entries"), "count"),
        "canonical.self_s": (layer("canonical", "self_s"), "s"),
        "enumeration.self_s": (layer("enumeration", "self_s"), "s"),
        "enumeration.classes": (summary["classes"], "count"),
        "enumeration.dedup_ratio": (ratio(summary["classes"], summary["canonical_under_enumeration"]), "ratio"),
        "obstructions.fis.calls": (f(fis), "count"),
        "obstructions.fis.self_s": (f(fis, "self_s"), "s"),
        "obstructions.discover.self_s": (f(("obstructions.find_minimal_obstructions",
                                            "obstructions.find_minimal_colored_obstructions"), "self_s"), "s"),
        "embed.calls": (f("embed.find_induced_embedding"), "count"),
        "embed.self_s": (layer("embed", "self_s"), "s"),
        "embed.hit_ratio": (ratio(f("embed.find_induced_embedding", "hits"), f("embed.find_induced_embedding")), "ratio"),
        "kthreshold.eliminate.calls": (f("kthreshold.eliminate"), "count"),
        "kthreshold.eliminate.self_s": (f("kthreshold.eliminate", "self_s"), "s"),
        "kthreshold.eliminate.accept_ratio": (ratio(f("kthreshold.eliminate", "hits"), f("kthreshold.eliminate")), "ratio"),
        "kthreshold.search.calls": (searches, "count"),
        "kthreshold.search.colorings_per_call": (ratio(f("kthreshold.eliminate", "under_group"), searches), "1/call"),
        "kthreshold.good.self_s": (f(("kthreshold.is_good", "kthreshold.neighborhood_shape"), "self_s"), "s"),
        "switching.search.calls": (switch_searches, "count"),
        "switching.search.sets_per_call": (ratio(f("switching.switch", "under_group"), switch_searches), "1/call"),
        "switching.switch.calls": (f("switching.switch"), "count"),
        "switching.switch.self_s": (f("switching.switch", "self_s"), "s"),
        "threshold.calls": (layer("threshold", "entries"), "count"),
        "threshold.self_s": (layer("threshold", "self_s"), "s"),
        "graphs.construct.calls": (f("graphs.construct"), "count"),
        "graphs.construct.self_s": (f("graphs.construct", "self_s"), "s"),
        "graphs.colored.construct.calls": (f("graphs.colored_construct"), "count"),
        "graph6.self_s": (layer("graph6", "self_s"), "s"),
        "cli.self_s": (layer("cli", "self_s"), "s"),
        "catalogs.load.self_s": (f("catalogs.load_catalog", "self_s"), "s"),
    }
    m = {name: (scaled(value, probe_s) if unit == "s" else value, unit) for name, (value, unit) in m.items()}
    for suite in ("thresholds", "special", "good", "partitioned", "switching", "catalogs", "counts"):
        m[f"verify.{suite}.s"] = (scaled(*untraced["suite_s"][suite]) if untraced else 0.0, "s")
    m["trace.overhead"] = (scaled(*traced) / scaled(*plain), "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "threshkit" / "__init__.py").is_file():
        print(f"error: no threshkit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    out_stem = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        out_stem = str(out_dir / f"trace-{args.workload}-seed{args.seed}")
    try:
        with Sampler() as sampler:
            marks = [] if args.trace else setup_marks(deadline)
            runner = run_verify if args.workload == "verify" else run_recognize
            result = runner(args, deadline, out_stem)
        apply_speed(result, sampler)
        setup = [sampler.interval(*m) for m in marks]
        attempted, failed, failures = check(args.workload, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    raw = {}
    if args.trace:
        metrics = per_layer(args.workload, result, out_stem)
    else:
        metrics, raw = end_to_end(args.workload, result, setup)
    if "digest" in result:
        print(f"inputs sha256 {result['digest']} ({len(result['cases'])} cases)")
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        measured = f"  (as measured: {raw[name][0]:.6g})" if name in raw else ""
        print(f"{name:40s} {value:14.6g} {unit}{measured}")
    print(f"{'fail_ratio':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
