"""Batch-smoke: certify the vectorized engine against the scalar one.

Three gates, in order (``make batch-smoke``):

1. **Grid certification.**  Every registered technique over the full
   Table-3 configuration grid (× workloads × durations × initial
   charges × DG-start draws) through :func:`repro.vsim.certify_grid` —
   every cell must be *bit-identical* between engines, with the batch
   outcomes additionally guarded by :class:`repro.checks.InvariantGuard`.
2. **Yearly certification.**  Full Monte-Carlo years through
   ``simulate_year_block`` vs the scalar ``_simulate_year``, per-year
   aggregate dicts compared with ``==`` — exercises cross-outage
   state-of-charge threading, recharge clamping and the runner's RNG
   discipline at a block size that splits mid-year.  A second pass runs
   one 20,000-year study in 37-year blocks (which do not divide it)
   against ``SeedSequence(0).spawn(20000)`` — certification at the size
   large studies actually run.
3. **Differential fuzz.**  A seeded, bounded run of the scalar↔batch
   fuzzer (:func:`repro.vsim.fuzz.run_diff_fuzz`): random
   configurations, plans and adversarial boundary-snapped durations.

Run from the repo root::

    PYTHONPATH=src python benchmarks/batch_smoke.py

Exit code 0 = certified.  Used by ``make batch-smoke`` and CI.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.analysis.availability import _simulate_year
from repro.core.configurations import get_configuration
from repro.core.performability import plant
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.techniques.registry import get_technique
from repro.vsim.equivalence import certify_grid
from repro.vsim.fuzz import run_diff_fuzz
from repro.vsim.yearly import simulate_year_block, year_block_specs
from repro.workloads.registry import get_workload

#: Yearly-certification slices: cross-outage threading under a DG that
#: can fail to start, a UPS-only configuration, and a crash-heavy one.
YEARLY_SLICES = (
    ("specjbb", "DG-SmallPUPS", "sleep-l"),
    ("websearch", "SmallPUPS", "throttle+sleep-l"),
    ("specjbb", "NoUPS", "migration"),
)

YEARLY_YEARS = 30

#: The at-scale yearly pass: one study of SCALE_YEARS years in blocks of
#: SCALE_BLOCK_YEARS, which leaves a short last block.
SCALE_SLICE = ("websearch", "SmallPUPS", "throttle+sleep-l")
SCALE_YEARS = 20_000
SCALE_BLOCK_YEARS = 37

FUZZ_CASES = 60
FUZZ_SEED = 20260807


def _grid_gate() -> int:
    started = time.perf_counter()
    report = certify_grid()
    elapsed = time.perf_counter() - started
    print(f"batch-smoke[grid]: {report.summary()} ({elapsed:.1f}s)")
    for mismatch in report.mismatches[:10]:
        print(f"  {mismatch}", file=sys.stderr)
    return 0 if report.ok else 1


def _year_spec(workload_name: str, config_name: str, technique_name: str):
    """The scalar per-year job spec of one (workload, config, technique)."""
    datacenter, plan = plant(
        get_workload(workload_name),
        get_configuration(config_name),
        get_technique(technique_name),
    )
    return {
        "datacenter": datacenter,
        "plan": plan,
        "recharge_seconds": DEFAULT_RECHARGE_SECONDS,
    }


def _yearly_gate() -> int:
    started = time.perf_counter()
    for workload_name, config_name, technique_name in YEARLY_SLICES:
        year_spec = _year_spec(workload_name, config_name, technique_name)
        seeds = np.random.SeedSequence(0).spawn(YEARLY_YEARS)
        scalar = [_simulate_year(year_spec, seed) for seed in seeds]
        # Two blocks that split the study mid-way: grouping must not
        # matter.
        split = YEARLY_YEARS // 2
        batch = []
        for start, count in ((0, split), (split, YEARLY_YEARS - split)):
            batch.extend(
                simulate_year_block(
                    {
                        **year_spec,
                        "base_seed": 0,
                        "start": start,
                        "count": count,
                        "total_years": YEARLY_YEARS,
                    }
                )
            )
        if scalar != batch:
            bad = [i for i in range(YEARLY_YEARS) if scalar[i] != batch[i]]
            print(
                f"FAIL: {workload_name}/{config_name}/{technique_name}: "
                f"years {bad[:5]} differ between engines",
                file=sys.stderr,
            )
            return 1
    elapsed = time.perf_counter() - started
    print(
        f"batch-smoke[yearly]: {len(YEARLY_SLICES)} slices x "
        f"{YEARLY_YEARS} years bit-identical ({elapsed:.1f}s)"
    )
    return 0


def _scale_gate() -> int:
    started = time.perf_counter()
    year_spec = _year_spec(*SCALE_SLICE)
    seeds = np.random.SeedSequence(0).spawn(SCALE_YEARS)
    scalar = [_simulate_year(year_spec, seed) for seed in seeds]
    scalar_s = time.perf_counter() - started
    blocks = year_block_specs(
        year_spec["datacenter"],
        year_spec["plan"],
        DEFAULT_RECHARGE_SECONDS,
        0,
        SCALE_YEARS,
        block_years=SCALE_BLOCK_YEARS,
    )
    batch = [year for spec in blocks for year in simulate_year_block(spec)]
    batch_s = time.perf_counter() - started - scalar_s
    if scalar != batch:
        bad = [i for i in range(SCALE_YEARS) if scalar[i] != batch[i]]
        print(
            f"FAIL: {'/'.join(SCALE_SLICE)}: "
            f"{len(bad)} of {SCALE_YEARS} years differ between engines, "
            f"first {bad[:5]}",
            file=sys.stderr,
        )
        return 1
    print(
        f"batch-smoke[yearly-scale]: {SCALE_YEARS} years in {len(blocks)} "
        f"blocks of <= {SCALE_BLOCK_YEARS} bit-identical (scalar "
        f"{scalar_s:.1f}s, batch {batch_s:.1f}s)"
    )
    return 0


def _fuzz_gate() -> int:
    started = time.perf_counter()
    report = run_diff_fuzz(cases=FUZZ_CASES, base_seed=FUZZ_SEED)
    elapsed = time.perf_counter() - started
    print(f"batch-smoke[fuzz]: {report.summary()} ({elapsed:.1f}s)")
    for mismatch in report.mismatches[:10]:
        print(f"  {mismatch[:500]}", file=sys.stderr)
    return 0 if report.ok else 1


def main() -> int:
    for gate in (_grid_gate, _yearly_gate, _scale_gate, _fuzz_gate):
        status = gate()
        if status:
            return status
    print("OK: batch engine certified bit-identical to scalar")
    return 0


if __name__ == "__main__":
    sys.exit(main())
