"""Batched Monte-Carlo years: blocks of simulated years on one kernel.

One availability study simulates hundreds of independent years of the
same (datacenter, plan) pair — the worst possible shape for the scalar
engine (every outage replays the plan in Python) and the best possible
shape for :class:`~repro.vsim.kernel.PlanKernel` (every cell shares one
compiled plan).

:func:`simulate_year_block` is the batch twin of
:func:`repro.analysis.availability._simulate_year`, evaluating a
contiguous block of years per job:

* **Same RNG discipline.**  Year ``i``'s seed is re-derived as
  ``SeedSequence(base_seed, spawn_key=(i,))`` — equal to
  ``SeedSequence(base_seed).spawn(total_years)[i]``, the exact child
  :func:`repro.runner.jobs.make_jobs` hands the scalar per-year job, but
  built in O(1) instead of spawning every year's seed for every block —
  and each year spawns ``(schedule, dg)`` streams positionally, so the
  sampled schedules and DG start rolls are bit-identical to the scalar
  path at any block size.
* **Same state threading.**  Cross-outage state of charge and recharge
  clamping follow :meth:`repro.sim.yearly.YearlyRunner._run_schedule`
  verbatim; only the outage simulations themselves are vectorized, in
  event-position-major order (all years' first outages as one batch,
  then all second outages, ...), which preserves each year's sequential
  threading while batching across years.
* **Same aggregates.**  The returned per-year dicts accumulate
  downtime/performance in event order with plain Python float adds, so
  each dict equals the scalar year's
  :meth:`~repro.sim.yearly.YearlyResult.aggregates` bit-for-bit —
  certified by ``make batch-smoke`` and ``tests/sim/test_vsim_yearly.py``.

Fault injection is out of kernel scope; the availability analyzer keeps
fault studies on the scalar path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import SimulationError
from repro.outages.generator import OutageGenerator
from repro.vsim.kernel import PlanKernel

#: Years per batch job.  Wide enough to amortise kernel compilation and
#: fill the vector lanes, small enough that a multi-worker run still
#: load-balances a default 200-year study.
DEFAULT_BLOCK_YEARS = 50


def simulate_year_block(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence] = None
) -> List[Dict[str, float]]:
    """Runner job: simulate years ``start .. start+count-1`` as one batch.

    The spec carries ``datacenter``, ``plan``, ``recharge_seconds``,
    ``base_seed`` (the analyzer's root seed), ``start``, ``count`` and
    ``total_years``; the job ignores the runner-supplied ``seed`` and
    re-derives the per-year streams from ``base_seed`` so results are
    independent of how years are grouped into blocks.

    Returns one aggregate dict per year, each bit-identical to what
    ``_simulate_year`` returns for the same year index.
    """
    datacenter = spec["datacenter"]
    plan = spec["plan"]
    recharge_seconds = float(spec["recharge_seconds"])
    if recharge_seconds <= 0:
        raise SimulationError("recharge_seconds must be positive")
    start = int(spec["start"])
    count = int(spec["count"])
    total_years = int(spec["total_years"])
    if not (0 <= start and count > 0 and start + count <= total_years):
        raise SimulationError("year block out of range")
    seeds = [
        np.random.SeedSequence(spec["base_seed"], spawn_key=(i,))
        for i in range(start, start + count)
    ]

    generator_spec = datacenter.generator
    roll_dg = (
        generator_spec.is_provisioned and generator_spec.start_reliability < 1.0
    )

    # Draw every year's schedule and DG rolls up front (cheap, sequential
    # per year exactly as the scalar runner draws them).
    events_per_year: List[List[Any]] = []
    dg_per_year: List[List[bool]] = []
    for year_seed in seeds:
        schedule_seed, dg_seed = year_seed.spawn(2)
        schedule = OutageGenerator(seed=schedule_seed).sample_year()
        rng = np.random.default_rng(dg_seed)
        events = list(schedule)
        if roll_dg:
            draws = [
                bool(rng.random() < generator_spec.start_reliability)
                for _ in events
            ]
        else:
            draws = [True] * len(events)
        events_per_year.append(events)
        dg_per_year.append(draws)

    kernel = PlanKernel(datacenter, plan)

    # Per-year sequential state and aggregates, threaded exactly as
    # YearlyRunner._run_schedule (Python floats, event order).
    soc = [1.0] * count
    previous_end = [float("-inf")] * count
    downtime = [0.0] * count
    crashes = [0] * count
    perf_sum = [0.0] * count
    perf_weight = [0.0] * count
    dg_failures = [0] * count

    max_events = max((len(e) for e in events_per_year), default=0)
    for j in range(max_events):
        years = [y for y in range(count) if len(events_per_year[y]) > j]
        if not years:
            break
        durations = []
        socs = []
        dgs = []
        for y in years:
            event = events_per_year[y][j]
            gap = event.start_seconds - previous_end[y]
            if gap < 0:
                raise SimulationError(
                    "schedule events must be ordered and non-overlapping"
                )
            soc[y] = min(1.0, max(0.0, soc[y] + gap / recharge_seconds))
            dg_starts = dg_per_year[y][j]
            if generator_spec.is_provisioned and not dg_starts:
                dg_failures[y] += 1
            durations.append(event.duration_seconds)
            socs.append(soc[y])
            dgs.append(dg_starts)
        batch = kernel.run(
            durations, initial_state_of_charge=socs, dg_starts=dgs
        )
        for pos, y in enumerate(years):
            event = events_per_year[y][j]
            event_downtime = float(
                batch.downtime_during_outage_seconds[pos]
            ) + float(batch.downtime_after_restore_seconds[pos])
            downtime[y] += event_downtime
            if bool(batch.crashed[pos]):
                crashes[y] += 1
            perf_sum[y] += (
                float(batch.mean_performance[pos]) * event.duration_seconds
            )
            perf_weight[y] += event.duration_seconds
            soc[y] = float(batch.ups_state_of_charge_end[pos])
            previous_end[y] = event.end_seconds

    return [
        {
            "downtime_seconds": downtime[y],
            "crashes": float(crashes[y]),
            "outages": float(len(events_per_year[y])),
            "perf_sum": perf_sum[y],
            "perf_weight": perf_weight[y],
            "dg_start_failures": float(dg_failures[y]),
        }
        for y in range(count)
    ]


def year_block_specs(
    datacenter,
    plan,
    recharge_seconds: float,
    base_seed: int,
    years: int,
    block_years: int = DEFAULT_BLOCK_YEARS,
) -> List[Dict[str, Any]]:
    """Split ``years`` into contiguous block specs for the runner."""
    if years <= 0:
        raise SimulationError("years must be positive")
    if block_years <= 0:
        raise SimulationError("block_years must be positive")
    specs = []
    for start in range(0, years, block_years):
        specs.append(
            {
                "datacenter": datacenter,
                "plan": plan,
                "recharge_seconds": recharge_seconds,
                "base_seed": base_seed,
                "start": start,
                "count": min(block_years, years - start),
                "total_years": years,
            }
        )
    return specs
