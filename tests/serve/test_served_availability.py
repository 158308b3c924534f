"""Served availability studies run on the vsim year-block kernel.

Fault-free studies are built as ``ceil(years / 50)`` year-block jobs;
their payloads must equal the scalar engine's byte for byte.  Studies
with injected faults stay on per-year scalar jobs.
"""

import json
import math

import pytest

from repro.analysis.availability import AvailabilityAnalyzer, _simulate_year
from repro.analysis.export import availability_record
from repro.core.configurations import get_configuration
from repro.serve import (
    EvalServer,
    ServeConfig,
    canonical_json,
    evaluate_request,
    parse_request,
    post_request,
)
from repro.serve.analyses import build
from repro.techniques.registry import get_technique
from repro.vsim.yearly import DEFAULT_BLOCK_YEARS, simulate_year_block
from repro.workloads.registry import get_workload


def body(workload, configuration, technique, years, seed=0, faults=None):
    params = {
        "workload": workload,
        "configuration": configuration,
        "technique": technique,
        "years": years,
        "seed": seed,
    }
    if faults is not None:
        params["faults"] = faults
    return {"analysis": "availability", "params": params}


def scalar_payload(workload, configuration, technique, years, seed=0):
    report = AvailabilityAnalyzer(get_workload(workload), seed=seed).analyze(
        get_configuration(configuration),
        get_technique(technique),
        years=years,
        engine="scalar",
    )
    return canonical_json(availability_record(report))


CASES = [
    # One year: a single block of one.
    ("memcached", "NoDG", "sleep-l", 1, 0),
    # 120 years: blocks of 50, 50 and 20; migration cannot fit SmallPUPS,
    # so the plant runs the full-service crash-through plan.
    ("specjbb", "SmallPUPS", "migration", 120, 3),
    # 500 years on MaxPerf: ten full blocks, the DG carries every outage.
    ("websearch", "MaxPerf", "full-service", 500, 11),
]


@pytest.mark.parametrize(
    "workload,configuration,technique,years,seed", CASES
)
def test_served_study_equals_scalar_engine(
    workload, configuration, technique, years, seed
):
    request = parse_request(
        json.dumps(body(workload, configuration, technique, years, seed))
    )
    jobs, _ = build(request)
    assert len(jobs) == math.ceil(years / DEFAULT_BLOCK_YEARS)
    assert all(job.fn is simulate_year_block for job in jobs)
    served = canonical_json(evaluate_request(request))
    assert served == scalar_payload(
        workload, configuration, technique, years, seed
    )


def test_fault_study_stays_on_scalar_years():
    request = parse_request(
        json.dumps(body("memcached", "NoDG", "sleep-l", 3, faults="dg_start=0.5"))
    )
    jobs, _ = build(request)
    assert len(jobs) == 3
    assert all(job.fn is _simulate_year for job in jobs)


def test_resend_hits_one_cache_entry_per_block(tmp_path):
    server = EvalServer(
        ServeConfig(port=0, cache_dir=str(tmp_path / "cache"))
    ).start()
    try:
        study = body("specjbb", "LargeEUPS", "sleep-l", 120, seed=7)
        status, first = post_request(server.base_url, study)
        assert status == 200
        assert first["meta"]["cache_hits"] == 0
        status, again = post_request(server.base_url, study)
        assert status == 200
        assert again["meta"]["jobs"] == math.ceil(120 / DEFAULT_BLOCK_YEARS)
        assert again["meta"]["cache_hits"] == math.ceil(
            120 / DEFAULT_BLOCK_YEARS
        )
        assert canonical_json(again["result"]) == canonical_json(
            first["result"]
        )
    finally:
        server.close(drain=True, timeout=30)
