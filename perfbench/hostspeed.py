"""Host speed, measured by a fixed probe in a process of its own.

    python3 perfbench/hostspeed.py

The process runs probe() once, prints "ready", then runs it every
PROBE_PERIOD_S until its stdin closes, and prints its samples as JSON, one
[end time, probe CPU seconds] pair per probe. run.py starts it through
Sampler around everything it times, on the same CPU as the worker, since
the machine's CPUs drift in speed each on their own. It shares no heap,
garbage collector or signal handler with threshkit, so a change to
threshkit's memory or collector settings does not move the probe. The end
times are perf_counter values: on Linux that is the system-wide monotonic
clock, so they lie on the same time line as the marks the worker takes.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

# The host's speed drifts by up to a third, within a second and over
# minutes, for CPU time as much as for wall time. The probe's samples are
# evenly spaced in time, so the mean of their speeds (REFERENCE_PROBE_S /
# probe time) is the host's mean speed over an interval, relative to the
# reference; an interval's time multiplied by it is its time at the
# reference speed.
PROBE_PERIOD_S = 0.05
# about the probe's harmonic-mean time on the 2-core machine the bounds were
# set on, so that scaled and measured times agree there on average
REFERENCE_PROBE_S = 0.00075
MIN_SAMPLES = 3  # an interval shorter than this many periods borrows neighbours
CALL_SAMPLES = 15  # a single call's speed comes from this many probes, about 0.75 s
_PROBE_STEPS = [(i % 2, ("add", "joinb", "joinw")[i * 7 % 3]) for i in range(10)]
_PROBE_ORDER = [3, 7, 1, 9, 0, 5, 2, 8, 4, 6]


def probe() -> int:
    """Fixed pure-Python work in threshkit's style, independent of threshkit."""
    from cases import build, encode_graph6, switch

    rows = build(_PROBE_STEPS, _PROBE_ORDER)
    forms = set()
    for s in range(0, 1 << 10, 37):
        forms.add(encode_graph6(switch(rows, s)))
    return len(forms)


def sample() -> list[tuple[float, float]]:
    """Probe every PROBE_PERIOD_S until stdin reaches its end. A probe is
    timed in CPU time, so that the worker, which shares its CPU, does not
    count when it preempts the probe."""
    probe()  # imports what the probe needs
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
        c0 = thread_time()
        probe()
        samples.append((perf_counter(), thread_time() - c0))
    return samples


class Sampler:
    """Runs the probe process while the benchmark times threshkit.

    Its samples are read when the block ends; interval() then gives any
    interval between two perf_counter marks taken inside the block."""

    def __enter__(self) -> Sampler:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("the host-speed sampler did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"host-speed sampler exited {self.proc.returncode}")
        samples = json.loads(out)
        self.ends = [t for t, _ in samples]
        self.times = [s for _, s in samples]

    def interval(self, start: float, end: float) -> tuple[float, float]:
        """(end - start, harmonic mean of the probe times in between). A short
        interval takes the MIN_SAMPLES probes nearest to its middle."""
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        if hi - lo < MIN_SAMPLES:
            return end - start, statistics.harmonic_mean(self._nearest(start, end, MIN_SAMPLES))
        return end - start, statistics.harmonic_mean(self.times[lo:hi])

    def call(self, start: float, end: float) -> tuple[float, float]:
        """(end - start, median of the CALL_SAMPLES probe times nearest to
        the interval's middle). For the latency of one call: the median
        follows the host's speed where the call ran, and one probe slowed
        by an interrupt does not move it."""
        return end - start, statistics.median(self._nearest(start, end, CALL_SAMPLES))

    def _nearest(self, start: float, end: float, k: int) -> list[float]:
        if len(self.times) < k:
            raise RuntimeError("the host-speed sampler took too few samples")
        mid = bisect.bisect_left(self.ends, (start + end) / 2)
        lo = min(max(0, mid - k // 2), len(self.times) - k)
        return self.times[lo:lo + k]


def scaled(seconds: float, probe_s: float) -> float:
    """seconds measured while the probe took probe_s, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


if __name__ == "__main__":
    json.dump(sample(), sys.stdout)
