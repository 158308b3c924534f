"""Small measurement helpers shared by the workloads.

The benchmark's host is a shared virtual machine whose cores run about
1.5 times slower (at times more), for seconds at a time, whenever a
neighbour on the same physical core is busy, each core on its own
schedule.  Times are therefore corrected for the speed of the core
while they were taken.  In process, the worker is pinned to one core, and
a :class:`CoreSpeed` thread in it runs :func:`calibration_loop`, a fixed
pure-Python loop that does not touch the program, every
:data:`SAMPLE_EVERY_S` seconds, also in the middle of an operation (it
takes the interpreter lock from it, as any thread would).  An
operation's *corrected* time is its wall time less the samples taken
inside it, times the ratio of :data:`NOMINAL_SAMPLE_S` to the mean
sample during it (or, for an operation shorter than the interval, the
mean of the samples just before and after it) raised to
:data:`SENSITIVITY`: the time it would have taken on an uncontended
core.  The wall times are reported beside them.  ``serve_workload``
applies the same correction from samples taken on the service's core
while it is idle.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Iterations of :func:`calibration_loop`.
SAMPLE_ITERATIONS = 8_000
#: Seconds :func:`calibration_loop` takes on an uncontended core of the
#: host the bounds were set on (a 2-vCPU KVM guest on an Intel Xeon):
#: the lower decile of several thousand samples.
NOMINAL_SAMPLE_S = 0.0021
#: Seconds between two samples of :class:`CoreSpeed`.
SAMPLE_EVERY_S = 0.1
#: How much more the program slows than the loop on a contended core.
#: Over 27 passes of both in-process workloads' operations, this power
#: of the mean sample left the least spread in the passes' corrected
#: times (0.042, against 0.059 for power 1 and 0.20 uncorrected); over
#: nine benchmark runs, fitting each end-to-end figure against the
#: runs' mean slowdown gave powers of 1.16 to 1.44.
SENSITIVITY = 1.35


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it (an observed value, never an
    interpolation)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def calibration_loop() -> float:
    """Seconds one fixed loop of integer arithmetic, dict stores, list
    appends and a sort takes on this core now."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    items: List[int] = []
    total = 0
    for i in range(SAMPLE_ITERATIONS):
        total = (total * 31 + i) % 1_000_003
        table[total & 4095] = i
        items.append(total)
    items.sort()
    return time.perf_counter() - started


def corrected(seconds: float, sample_s: float) -> float:
    """``seconds`` at the core's nominal speed."""
    return seconds * (NOMINAL_SAMPLE_S / sample_s) ** SENSITIVITY


class CoreSpeed:
    """Samples this core's speed from a thread of this process.

    The samples are ``(start, end)`` intervals of ``time.perf_counter``;
    the process must run no other thread, or it would compete with the
    loop and a program that left work running in the background would
    shorten its own corrected times (:meth:`check_alone`).
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="core-speed")
        self._thread.start()

    def _run(self) -> None:
        while not self._stopped.wait(SAMPLE_EVERY_S):
            started = time.perf_counter()
            self.samples.append((started, started + calibration_loop()))

    def stop(self) -> None:
        """Take one last sample after everything timed, then stop."""
        time.sleep(SAMPLE_EVERY_S * 1.5)
        self._stopped.set()
        self._thread.join()

    @staticmethod
    def check_alone() -> None:
        if threading.active_count() != 2 or len(os.listdir("/proc/self/task")) != 2:
            raise RuntimeError("the program left threads running; "
                               "the core-speed correction would be wrong")

    def over(self, start: float, end: float) -> Tuple[float, float]:
        """For the interval ``[start, end]``: the seconds samples took
        inside it, and the mean sample during it (or around it)."""
        inside = [(s, e) for s, e in self.samples if s < end and e > start]
        if not inside:
            before = [(s, e) for s, e in self.samples if e <= start][-1:]
            after = [(s, e) for s, e in self.samples if s >= end][:1]
            around = before + after
            return 0.0, statistics.fmean(e - s for s, e in around)
        taken = sum(min(e, end) - max(s, start) for s, e in inside)
        return taken, statistics.fmean(e - s for s, e in inside)


def pass_metrics(records: Sequence[Sequence[Any]],
                 ) -> Dict[str, Tuple[float, str]]:
    """End-to-end figures of an in-process run from its operations'
    ``(key, class, wall_s, net_s, sample_s, site_years)`` records (wall
    time, wall time less samples, mean sample), over all passes.

    ``years_per_s`` is the run's simulated site-years over the corrected
    seconds spent on them.  An operation's latency is its mean corrected
    time over the passes (every pass runs it once, so the mean spans the
    whole run), and a class's ``p50`` is the median over its operations
    of that mean.  The ``p90`` is nearest-rank over every run of the
    class.  ``wall.*`` are the same figures from uncorrected times.
    """
    metrics: Dict[str, Tuple[float, str]] = {}
    for prefix, fix in (("", lambda _w, n, c: corrected(n, c)),
                        ("wall.", lambda w, _n, _c: w)):
        runs: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        for key, klass, wall_s, net_s, sample_s, _ in records:
            runs[klass, key].append(fix(wall_s, net_s, sample_s))
        total = sum(t for times in runs.values() for t in times)
        metrics[prefix + "years_per_s"] = (
            sum(r[5] for r in records) / total, "1/s")
        for klass in ("light", "study", "repeat"):
            means = [statistics.fmean(v) for (k, _), v in runs.items() if k == klass]
            every = [t for (k, _), v in runs.items() if k == klass for t in v]
            metrics[f"{prefix}{klass}.p50_ms"] = (
                statistics.median(means) * 1000.0, "ms")
            metrics[f"{prefix}{klass}.p90_ms"] = (
                percentile(every, 0.9) * 1000.0, "ms")
    return metrics
