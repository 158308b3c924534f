"""One pass of an in-process workload: ``availability-study`` or
``fleet-frontier``.

Started by ``run.py``, once per pass.  The worker imports the program,
runs one small warm-up call, prints ``ready`` (``setup_s`` is the time
to that line), then runs its pass and prints one JSON line.

Untraced (``--trace 0``) it runs pass ``--pass`` once and reports, for
each operation and for its own set-up, the wall time and the core speed
during it (:class:`measure.CoreSpeed`, sampling from the start of
``main``).  Traced (``--trace 1``) it runs pass 0 untraced, then the
same pass under :mod:`layers` spans, and checks the exact span counts
against their closed forms.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cells  # noqa: E402
import layers  # noqa: E402
from measure import CoreSpeed, corrected, peak_rss_mb  # noqa: E402


def warm_up(workload: str) -> None:
    """One small call through the same entry point, outside the pools."""
    if workload == "availability-study":
        cells.run_op(cells.availability_op(
            "warm", "specjbb", "LargeEUPS", "sleep-l", 50, 0))
    else:
        from repro.fleet.frontier import fleet_frontier

        fleet_frontier("coastal-pair", ["NoDG"], years=1, seed=0, jobs=1)


class Runner:
    """Runs operations, timing each and checking it against its pin."""

    def __init__(self) -> None:
        self.pins = cells.load_pins()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, op: cells.Op) -> Tuple[float, float, Any]:
        """Returns the operation's start and end times and its result."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = cells.run_op(op)
        except Exception:  # noqa: BLE001 - a failed operation is counted
            result = None
            self.failed += 1
            self.errors.append(f"{op.key}: {traceback.format_exc(limit=3)}")
        ended = time.perf_counter()
        CoreSpeed.check_alone()
        if result is not None:
            got = cells.digest(result)
            if self.pins.get(op.key) != got:
                self.failed += 1
                self.errors.append(f"{op.key}: digest {got} != pin "
                                   f"{self.pins.get(op.key)}")
        return started, ended, result

    def run_pass(self, ops: List[cells.Op]):
        """Returns ``[(op, start, end, result)]``."""
        return [(op, *self.run(op)) for op in ops]


def timings(speed: CoreSpeed, timed) -> List[Tuple[cells.Op, float, float, float, Any]]:
    """``[(op, wall_s, net_s, sample_s, result)]`` for a run pass; call
    after :meth:`CoreSpeed.stop`."""
    out = []
    for op, start, end, result in timed:
        taken, sample_s = speed.over(start, end)
        out.append((op, end - start, end - start - taken, sample_s, result))
    return out


def expected_counts(workload: str, timed) -> Dict[str, int]:
    """Closed forms of the traced pass's exact counts."""
    ops = [op for op, *_ in timed]
    if workload == "availability-study":
        studies = len(ops)
        years = sum(op.args[3] for op in ops)
        return {
            "vsim.year_block.calls": sum(cells.block_calls(op) for op in ops),
            "vsim.kernel.cells": sum(t[-1].outages_simulated for t in timed
                                     if t[-1] is not None),
            "core.make_datacenter.calls": studies,
            "outages.sample_year.calls": years,
            "sim.run_schedule.calls": 0,
            "fleet.route.calls": 0,
        }
    site_years = sum(op.site_years for op in ops)
    cell_years = len(cells.CONFIGURATIONS) * 2 * cells.FLEET_YEARS * len(ops)
    return {
        "vsim.year_block.calls": 0,
        "vsim.kernel.cells": 0,
        "core.make_datacenter.calls": site_years,
        "outages.sample_year.calls": site_years,
        "sim.run_schedule.calls": site_years,
        "fleet.route.calls": cell_years,
    }


def measure_traced(runner: Runner, speed: CoreSpeed, workload: str,
                   ops: List[cells.Op]) -> Dict[str, Any]:
    """The pass untraced, then traced; spans give the layer numbers."""
    plain = runner.run_pass(ops)
    recorder = layers.SpanRecorder()
    uninstall = layers.install(recorder)
    try:
        traced = runner.run_pass(ops)
    finally:
        uninstall()
    speed.stop()
    metrics = layers.summarize(recorder.spans, recorder.tallies)
    checks = [
        f"{name} = {metrics[name][0]}, closed form {want}"
        for name, want in expected_counts(workload, traced).items()
        if metrics[name][0] != want
    ]
    years = sum(op.site_years for op in ops)
    plain_rate, traced_rate = (
        years / sum(corrected(net, sample) for _, _, net, sample, _
                    in timings(speed, timed))
        for timed in (plain, traced))
    metrics["trace.overhead_pct"] = (
        100.0 * (plain_rate - traced_rate) / plain_rate, "%")
    return {"metrics": metrics, "count_checks": checks,
            "plain_years_per_s": plain_rate,
            "traced_years_per_s": traced_rate}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("availability-study", "fleet-frontier"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = CoreSpeed()
    begun = time.perf_counter()
    ops = cells.run_pass(args.workload, args.seed, args.index)
    runner = Runner()
    warm_up(args.workload)
    ready = time.perf_counter()
    print("ready", flush=True)
    if args.trace:
        out = measure_traced(runner, speed, args.workload, ops)
    else:
        timed = runner.run_pass(ops)
        speed.stop()
        setup_sampled_s, setup_sample_s = speed.over(begun, ready)
        out = {"records": [[op.key, op.klass, wall_s, net_s, sample_s,
                            op.site_years]
                           for op, wall_s, net_s, sample_s, _
                           in timings(speed, timed)],
               "setup_sampled_s": setup_sampled_s,
               "setup_sample_s": setup_sample_s,
               "peak_rss_mb": peak_rss_mb()}
    out.update(attempted=runner.attempted, failed=runner.failed,
               errors=runner.errors)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
