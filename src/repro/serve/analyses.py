"""From a validated :class:`~repro.serve.protocol.Request` to runner jobs.

Every analysis the service exposes reduces to the same shape the
library's own entry points use: *build a job list, run it, fold the
values*.  :func:`build` returns that pair — ``(jobs, finish)`` — without
running anything, which is what lets the batcher concatenate the job
lists of many requests into **one** executor submission and still hand
each caller exactly the payload a dedicated run would have produced.

:func:`evaluate_request` is the unbatched reference path: the CLI's
``--json`` output goes through it, and the serve-smoke certification
diffs its payloads against the HTTP ones byte-for-byte.  Both paths
share the same job builders, the same seed trees, and (given the same
cache directory) the same :class:`~repro.runner.ResultCache` entries —
bit-identical responses are a construction property, then certified by
test.
"""

from __future__ import annotations

import time
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.runner.executor import BaseExecutor, SerialExecutor
from repro.runner.jobs import Job, make_jobs
from repro.serve.protocol import Request

#: Folds executor values (the request's slice, submission order) into the
#: response's ``result`` payload — plain JSON-able data only.
FinishFn = Callable[[Sequence[Any]], Any]


def _echo_cell(spec: Mapping[str, Any], seed: Any) -> Dict[str, Any]:
    """Diagnostics job: sleep as instructed, return the payload."""
    if spec["sleep_s"] > 0:
        time.sleep(spec["sleep_s"])
    return {"echo": spec["payload"]}


def _whatif_record(report) -> Dict[str, Any]:
    """Flatten an ExpectedOutageReport; nodes as [duration, weight] pairs."""
    record = asdict(report)
    record["nodes"] = [[d, w] for d, w in report.nodes]
    record["expected_downtime_minutes"] = report.expected_downtime_minutes
    return record


def _rank_records(ranking) -> List[Dict[str, Any]]:
    """Flatten a reduce_rank result (list of SizedBackup, cheapest first)."""
    from repro.analysis.export import _jsonable

    records = []
    for sized in ranking:
        config = sized.configuration
        records.append(
            {
                "technique": sized.point.technique_name,
                "normalized_cost": _jsonable(sized.normalized_cost),
                "performance": _jsonable(sized.point.performance),
                "downtime_minutes": _jsonable(sized.point.downtime_minutes),
                "crashed": sized.point.crashed,
                "configuration": {
                    "name": config.name,
                    "dg_power_fraction": config.dg_power_fraction,
                    "ups_power_fraction": config.ups_power_fraction,
                    "ups_runtime_seconds": config.ups_runtime_seconds,
                },
            }
        )
    return records


def _build_availability(params: Mapping[str, Any]) -> Tuple[List[Job], FinishFn]:
    from repro.analysis.availability import AvailabilityAnalyzer
    from repro.analysis.export import availability_record
    from repro.core.configurations import get_configuration
    from repro.faults import FaultPlan
    from repro.techniques.registry import get_technique
    from repro.workloads.registry import get_workload

    analyzer = AvailabilityAnalyzer(
        get_workload(params["workload"]),
        num_servers=params["servers"],
        seed=params["seed"],
    )
    faults = (
        FaultPlan.parse(params["faults"]) if params["faults"] else None
    )
    # Fault-free studies run as vsim year blocks (bit-identical reports,
    # year-block cache keys); ``prepare`` keeps fault studies scalar.
    jobs, reduce = analyzer.prepare(
        get_configuration(params["configuration"]),
        get_technique(params["technique"]),
        years=params["years"],
        faults=faults,
        engine="batch",
    )
    return jobs, lambda values: availability_record(reduce(values))


def _build_rank(params: Mapping[str, Any]) -> Tuple[List[Job], FinishFn]:
    from repro.core.selection import rank_jobs, reduce_rank
    from repro.units import minutes
    from repro.workloads.registry import get_workload

    jobs = rank_jobs(
        get_workload(params["workload"]),
        minutes(params["outage_minutes"]),
        technique_names=params["techniques"],
        num_servers=params["servers"],
    )
    return jobs, lambda values: _rank_records(reduce_rank(values))


def _build_sweep(params: Mapping[str, Any]) -> Tuple[List[Job], FinishFn]:
    from repro.analysis.export import sweep_records
    from repro.analysis.sweep import (
        configuration_sweep_jobs,
        technique_sweep_jobs,
    )
    from repro.core.configurations import get_configuration
    from repro.units import minutes
    from repro.workloads.registry import get_workload

    workload = get_workload(params["workload"])
    durations = [minutes(m) for m in params["outage_minutes"]]
    if params["kind"] == "techniques":
        jobs = technique_sweep_jobs(
            workload, params["rows"], durations, num_servers=params["servers"]
        )
    else:
        jobs = configuration_sweep_jobs(
            workload,
            [get_configuration(name) for name in params["rows"]],
            durations,
            num_servers=params["servers"],
        )
    return jobs, sweep_records


def _build_whatif(params: Mapping[str, Any]) -> Tuple[List[Job], FinishFn]:
    from repro.core.whatif import whatif_cell

    jobs = make_jobs(
        whatif_cell,
        [dict(params)],
        labels=[
            f"whatif:{params['workload']}/{params['configuration']}"
            f"/{params['technique']}"
        ],
    )
    return jobs, lambda values: _whatif_record(values[0])


def _build_policy_frontier(params: Mapping[str, Any]) -> Tuple[List[Job], FinishFn]:
    from repro.policy.frontier import (
        policy_frontier_jobs,
        reduce_policy_frontier,
    )

    jobs = policy_frontier_jobs(
        params["workload"],
        params["configurations"],
        params["policies"],
        nodes_per_bucket=params["nodes_per_bucket"],
        num_servers=params["servers"],
    )
    return jobs, lambda values: reduce_policy_frontier(values)


def _build_fleet_frontier(params: Mapping[str, Any]) -> Tuple[List[Job], FinishFn]:
    from repro.fleet.frontier import prepare_fleet_frontier

    return prepare_fleet_frontier(
        params["fleet"],
        params["configurations"],
        technique=params["technique"],
        years=params["years"],
        seed=params["seed"],
    )


def _build_echo(params: Mapping[str, Any]) -> Tuple[List[Job], FinishFn]:
    jobs = make_jobs(_echo_cell, [dict(params)], labels=["echo"])
    return jobs, lambda values: values[0]


_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], Tuple[List[Job], FinishFn]]] = {
    "availability": _build_availability,
    "rank": _build_rank,
    "sweep": _build_sweep,
    "whatif": _build_whatif,
    "policy_frontier": _build_policy_frontier,
    "fleet_frontier": _build_fleet_frontier,
    "echo": _build_echo,
}


def build(request: Request) -> Tuple[List[Job], FinishFn]:
    """The request's ``(jobs, finish)`` pair, nothing executed yet."""
    return _BUILDERS[request.analysis](request.params)


def evaluate_request(
    request: Request, executor: Optional[BaseExecutor] = None
) -> Any:
    """Run one request to its ``result`` payload — the reference path.

    This is exactly what the batched server computes for the same
    request; the CLI's ``--json`` flags print its output canonically.
    """
    jobs, finish = build(request)
    if executor is None:
        executor = SerialExecutor()
    report = executor.run(jobs)
    return finish(report.values)
