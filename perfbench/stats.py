"""Per-phase sample store, failure accounting and summary helpers."""

from __future__ import annotations

import bisect
import math
import statistics
import sys
import threading
from array import array
from collections import Counter, defaultdict
from time import perf_counter_ns, thread_time_ns

# Operation times are CPU times scaled by a fixed reference loop that a
# probe thread runs while they happen, reported as if that loop took
# REF_MS (about its median on the 2-vCPU Xeon guest the bounds were set on).  On a shared virtual machine a run can sit for tens of seconds
# on a core that other guests slow by up to 1.5x, CPU time included; the
# loop slows with it.
REF_MS = 2.0
PROBE_EVERY_S = 0.02
# an operation is scaled by the mean reference over its own span widened by
# this much on each side, so that short operations still see several samples
PROBE_PAD_NS = 100_000_000


def _reference_loop() -> float:
    """Fixed interpreter-bound work: calls, tuples, float maths, dict stores."""
    table = {}
    acc = 0.0
    for i in range(2000):
        t = (i, i * 0.5, -i)
        acc += math.sqrt(abs(t[1] - t[2])) * 1.0001
        table[i & 63] = t
        acc += len(table) + max(t)
    return acc


def reference_ms() -> float:
    t0 = thread_time_ns()
    _reference_loop()
    return (thread_time_ns() - t0) / 1e6


class SpeedProbe:
    """Background thread timing the reference loop every PROBE_EVERY_S.

    It runs on the same core as the measured work (the process is pinned),
    and thread CPU clocks leave each thread's time out of the other's.
    """

    def __init__(self):
        self.times: list[int] = []
        self.refs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        ms = reference_ms()
        self.times.append(perf_counter_ns())
        self.refs.append(ms)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def ref_ms(self, window: tuple[int, int]) -> float:
        """Mean reference time over a padded wall-clock window, else the last sample before it."""
        lo = bisect.bisect_left(self.times, window[0] - PROBE_PAD_NS)
        hi = bisect.bisect_right(self.times, window[1] + PROBE_PAD_NS)
        if hi > lo:
            return statistics.fmean(self.refs[lo:hi])
        return self.refs[max(hi - 1, 0)]

    def scale(self, ms: float, window: tuple[int, int]) -> float:
        """Scale once the probe has run past the window (at the end of a phase)."""
        return ms * REF_MS / self.ref_ms(window)


class Stats:
    """What one measured phase did: samples in CPU ms, counters, ops and failures.

    Every operation is settled exactly once, with the list of checks it
    failed; an operation that raised counts as failed, never as dropped.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.ops = 0
        self.failed = 0
        self.passes = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        # raw CPU ms per sample key, and every timed run of a repeated operation,
        # kept in arrays so that the harness's own memory stays small
        self.samples: defaultdict[str, array] = defaultdict(lambda: array("d"))
        self._op_index: dict = {}
        self._timed = {name: array(code) for name, code in (("op", "l"), ("ms", "d"), ("w0", "q"), ("w1", "q"), ("per", "q"))}
        self.counts: Counter = Counter()

    def run_scale(self) -> float:
        """Factor from this phase's CPU ms to reference ms, for per-layer figures."""
        return REF_MS / statistics.median(self.probe.refs)

    def time_op(self, op, ms: float, window: tuple[int, int], per: int = 1) -> None:
        """Record one run of a repeated operation: CPU ms, wall window in perf_counter ns."""
        t = self._timed
        t["op"].append(self._op_index.setdefault(op, len(self._op_index)))
        t["ms"].append(ms)
        t["w0"].append(window[0])
        t["w1"].append(window[1])
        t["per"].append(per)

    def op_ms(self) -> dict:
        """Median reference-scaled time of each repeated operation, divided by its ``per``."""
        t = self._timed
        scaled = defaultdict(list)
        for i, ms, w0, w1, per in zip(t["op"], t["ms"], t["w0"], t["w1"], t["per"]):
            scaled[i].append(self.probe.scale(ms, (w0, w1)) / per)
        return {op: statistics.median(scaled[i]) for op, i in self._op_index.items()}

    def settle(self, errors: list[str]) -> None:
        self.ops += 1
        if errors:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {'; '.join(errors)}", file=sys.stderr)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by the exclusive method of statistics.quantiles."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100)[q - 1]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0
