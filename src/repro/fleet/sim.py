"""Monte-Carlo fleet years: every site simulated, every shock shared.

One :func:`simulate_fleet_year` job runs the whole fleet through one
year: each site draws its own Figure 1 outage schedule and DG start
rolls *exactly* as the certified single-site path does, the regional
shock layer merges correlated events in, the per-site simulator runs
each (possibly extended) schedule, and the routing layer integrates
where displaced load went.

**Seed discipline** (the property the independence regression pins):
the per-year seed spawns one child per site, in fleet order, and the
shock stream's child strictly *after* them — SeedSequence children are
positional, so a site's randomness depends only on (year seed, site
position), never on the shock layer, the routing flag, or any other
site.  Each site child then spawns ``(schedule_seed, dg_seed)`` exactly
as :func:`repro.analysis.availability._simulate_year` does, and with
shocks disabled the merged schedule *is* the base schedule object — so
a fleet of uncorrelated sites reproduces the single-site yearly
aggregates bit-identically, and the fleet layer can never perturb the
certified single-site path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.configurations import get_configuration
from repro.core.performability import plant
from repro.errors import RunnerError
from repro.fleet.correlation import RegionalShockSampler, merge_outage_events
from repro.fleet.routing import OutageWindow, SiteTimeline, route_fleet_year
from repro.fleet.spec import FleetSpec
from repro.obs import current_metrics, current_tracer
from repro.outages.generator import OutageGenerator
from repro.power.ups import DEFAULT_RECHARGE_SECONDS
from repro.runner.cache import ResultCache
from repro.runner.executor import BaseExecutor, make_executor
from repro.runner.jobs import Job, make_jobs
from repro.runner.progress import ProgressListener
from repro.sim.yearly import YearlyRunner
from repro.techniques.registry import get_technique
from repro.units import SECONDS_PER_YEAR, to_minutes
from repro.workloads.registry import get_workload


def simulate_fleet_year(
    spec: Mapping[str, Any], seed: Optional[np.random.SeedSequence]
) -> Dict[str, Any]:
    """Runner job: one fleet year, reduced to per-site and fleet aggregates.

    The spec carries ``fleet`` (a :class:`~repro.fleet.spec.FleetSpec`)
    and ``routing`` (whether displaced load fails over).  The per-site
    blocks use the exact field names of the single-site year job, so
    the independence regression can compare dicts with ``==``.
    """
    if seed is None:
        raise RunnerError("simulate_fleet_year requires a seeded job")
    fleet: FleetSpec = spec["fleet"]
    routing: bool = bool(spec["routing"])

    site_seeds = seed.spawn(len(fleet.sites))
    (shock_seed,) = seed.spawn(1)
    shocks = RegionalShockSampler(fleet).sample_year(
        np.random.default_rng(shock_seed)
    )
    shock_site_hits = sum(len(events) for events in shocks.values())

    tracer = current_tracer()
    metrics = current_metrics()

    sites: Dict[str, Dict[str, float]] = {}
    timelines: List[SiteTimeline] = []
    for site, site_seed in zip(fleet.sites, site_seeds):
        schedule_seed, dg_seed = site_seed.spawn(2)
        generator = OutageGenerator(seed=schedule_seed)
        schedule = merge_outage_events(
            generator.sample_year(), shocks[site.name]
        )
        datacenter, plan = plant(
            get_workload(site.workload),
            get_configuration(site.configuration),
            get_technique(site.technique),
            site.servers,
        )
        runner = YearlyRunner(
            datacenter,
            plan,
            recharge_seconds=DEFAULT_RECHARGE_SECONDS,
            rng=np.random.default_rng(dg_seed),
        )
        result = runner.run_schedule(schedule)
        sites[site.name] = result.aggregates()
        windows = tuple(
            OutageWindow(
                start_seconds=event.start_seconds,
                end_seconds=event.end_seconds,
                performance=min(1.0, max(0.0, outcome.mean_performance)),
            )
            for event, outcome in zip(result.events, result.outcomes)
        )
        timelines.append(
            SiteTimeline(
                name=site.name,
                capacity=site.capacity,
                load=site.load,
                power_region=site.power_region,
                rtt_seconds=site.rtt_seconds,
                windows=windows,
            )
        )

    totals = route_fleet_year(
        timelines,
        SECONDS_PER_YEAR,
        fleet.redirect_seconds,
        routing=routing,
    )
    totals["shock_site_hits"] = float(shock_site_hits)

    if metrics is not None:
        metrics.counter("fleet.years").inc()
        if shock_site_hits:
            metrics.counter("fleet.shock_site_hits").inc(shock_site_hits)
        if totals["max_simultaneous_outages"] >= 2:
            metrics.counter("fleet.multi_site_years").inc()
    if tracer is not None:
        tracer.event(
            "fleet-year",
            fleet=fleet.name,
            routing=routing,
            shock_site_hits=shock_site_hits,
            max_simultaneous=totals["max_simultaneous_outages"],
        )
    return {"sites": sites, "fleet": totals}


def reduce_fleet_years(
    values: Sequence[Mapping[str, Any]],
    fleet: FleetSpec,
    routing: bool,
) -> Dict[str, Any]:
    """Fold fleet-year job values into the fleet report payload.

    Plain JSON-able dict, deterministic in input order — serve and CLI
    fold identical lists identically.
    """
    if not values:
        raise RunnerError("cannot reduce zero fleet years")
    years = len(values)
    demand = sum(v["fleet"]["demand"] for v in values)
    served = sum(v["fleet"]["served"] for v in values)
    remote = sum(v["fleet"]["remote_served"] for v in values)
    total_load = fleet.total_load
    unserved_eq = np.array(
        [
            (v["fleet"]["demand"] - v["fleet"]["served"]) / total_load
            if total_load > 0
            else 0.0
            for v in values
        ]
    )
    fully_served = np.array(
        [v["fleet"]["fully_served_seconds"] for v in values]
    )
    simultaneous = np.array(
        [v["fleet"]["simultaneous_outage_seconds"] for v in values]
    )
    multi_years = sum(
        1 for v in values if v["fleet"]["max_simultaneous_outages"] >= 2
    )

    per_site: Dict[str, Dict[str, float]] = {}
    for site in fleet.sites:
        downtime = np.array(
            [v["sites"][site.name]["downtime_seconds"] for v in values]
        )
        outages = sum(v["sites"][site.name]["outages"] for v in values)
        crashes = sum(v["sites"][site.name]["crashes"] for v in values)
        per_site[site.name] = {
            "mean_downtime_minutes_per_year": to_minutes(float(downtime.mean())),
            "availability": 1.0 - float(downtime.mean()) / SECONDS_PER_YEAR,
            "outages": float(outages),
            "crash_fraction": crashes / outages if outages else 0.0,
            "dg_start_failures": float(
                sum(v["sites"][site.name]["dg_start_failures"] for v in values)
            ),
        }

    return {
        "fleet": fleet.name,
        "routing": routing,
        "years_simulated": years,
        "sites": [site.name for site in fleet.sites],
        "performability": served / demand if demand > 0 else 1.0,
        "availability": float(fully_served.mean()) / SECONDS_PER_YEAR,
        # unserved_eq is already seconds: (load x seconds) / load.
        "mean_unserved_seconds_per_year": float(unserved_eq.mean()),
        "p95_unserved_seconds_per_year": float(np.percentile(unserved_eq, 95)),
        "remote_served_fraction": remote / demand if demand > 0 else 0.0,
        "multi_site_outage_probability": multi_years / years,
        "mean_simultaneous_outage_seconds": float(simultaneous.mean()),
        "mean_shock_site_hits": float(
            np.mean([v["fleet"]["shock_site_hits"] for v in values])
        ),
        "per_site": per_site,
    }


class FleetAnalyzer:
    """Monte-Carlo fleet study over one :class:`FleetSpec`.

    Per-year jobs follow the runner contract — fingerprinted specs,
    positional seeds — so results are bit-identical at any worker count
    and cacheable across runs, exactly like the single-site
    :class:`~repro.analysis.availability.AvailabilityAnalyzer`.
    """

    def __init__(self, fleet: FleetSpec, seed: int = 0, routing: bool = True):
        self.fleet = fleet
        self.seed = seed
        self.routing = routing

    def prepare(
        self, years: int = 100
    ) -> Tuple[List[Job], Callable[[Sequence[Any]], Dict[str, Any]]]:
        """The study as ``(jobs, reduce)`` — batcher-composable."""
        if years <= 0:
            raise RunnerError("years must be positive")
        year_spec = {"fleet": self.fleet, "routing": self.routing}
        jobs = make_jobs(
            simulate_fleet_year,
            [year_spec] * years,
            base_seed=self.seed,
            labels=[f"fleet-year={i}" for i in range(years)],
        )

        def reduce(values: Sequence[Any]) -> Dict[str, Any]:
            return reduce_fleet_years(values, self.fleet, self.routing)

        return jobs, reduce

    def analyze(
        self,
        years: int = 100,
        jobs: int = 1,
        executor: Optional[BaseExecutor] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressListener] = None,
    ) -> Dict[str, Any]:
        """Simulate ``years`` fleet years; identical for every ``jobs``."""
        job_list, reduce = self.prepare(years=years)
        if executor is None:
            executor = make_executor(jobs=jobs, cache=cache, progress=progress)
        report = executor.run(job_list)
        return reduce(report.values)
