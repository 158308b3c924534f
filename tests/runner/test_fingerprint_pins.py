"""Pinned job fingerprints: refactors must keep on-disk caches warm.

A job's fingerprint keys the result cache, so a change that alters the
spec of an existing job silently orphans every cached result of that
kind.  These digests were taken from the code as it stood before the
plant builder and the selection knob were consolidated; one job of each
kind the CLI, the service and the benchmark cache is pinned here.
"""

import pytest

from repro.analysis.availability import AvailabilityAnalyzer
from repro.analysis.sweep import configuration_sweep_jobs, technique_sweep_jobs
from repro.core.configurations import get_configuration
from repro.core.selection import rank_jobs
from repro.fleet.sim import FleetAnalyzer
from repro.fleet.spec import get_fleet
from repro.techniques.registry import get_technique
from repro.workloads.registry import get_workload

PINNED = {
    "availability-year": "17d06af2edbcc210875b91ddabf065b20b4ef718c6582cf11ff48982eea86438",
    "availability-year-crash-through": "4472d80dbf71bf101159a640660989287581ee597953cb802787641c807749f4",
    "availability-year-block": "1e95c47507251d9d83638864d410ddcf482a699b54ab92843ad20080813b6d36",
    "fleet-year": "edadf51b9d12c7dd921a140b4c528b973e78eb65288854d0a7f9d6a6fceb4842",
    "rank": "ec2c8ca1059b072466da6c0d1f08ef7beca5276b074eed25a395ecda050f5ece",
    "figure5-cell": "16654be98c48330f3561f46804d6223fdfcad9b6db5f1478885a247c43390510",
    "figure6-cell": "e43847e457bd6925a744988125747b70d4c0088204488eff7a986473b67c5f8e",
}


def _job(kind):
    workload = get_workload("specjbb")
    analyzer = AvailabilityAnalyzer(workload, seed=7)
    large_e = get_configuration("LargeEUPS")
    if kind == "availability-year":
        jobs, _ = analyzer.prepare(large_e, get_technique("sleep-l"), years=3)
        return jobs[1]
    if kind == "availability-year-crash-through":
        # Migration cannot fit SmallPUPS: the plant falls back to the
        # full-service crash-through plan, which the spec carries.
        jobs, _ = analyzer.prepare(
            get_configuration("SmallPUPS"), get_technique("migration"), years=3
        )
        return jobs[2]
    if kind == "availability-year-block":
        jobs, _ = analyzer.prepare(
            large_e, get_technique("sleep-l"), years=120, engine="batch"
        )
        return jobs[1]
    if kind == "fleet-year":
        jobs, _ = FleetAnalyzer(get_fleet("us-triad"), seed=3).prepare(years=2)
        return jobs[1]
    if kind == "rank":
        return rank_jobs(workload, 1800.0)[2]
    if kind == "figure5-cell":
        return configuration_sweep_jobs(workload, [large_e], [1800.0])[0]
    if kind == "figure6-cell":
        return technique_sweep_jobs(workload, ["sleep-l"], [1800.0])[0]
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_fingerprint_pinned(kind):
    assert _job(kind).fingerprint == PINNED[kind]
