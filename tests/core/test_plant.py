"""The one plant builder and its three yearly callers.

A yearly study runs every outage on one (datacenter, plan) pair.  When
the technique cannot fit the UPS budget the plant degrades to the
full-service crash-through plan; the single-site study, the fleet's
per-site years and the chaos harness must all build exactly that plant.
"""

import numpy as np
import pytest

from repro.analysis.availability import AvailabilityAnalyzer
from repro.core.configurations import get_configuration
from repro.core.performability import (
    make_datacenter,
    plan_power_budget_watts,
    plant,
)
from repro.errors import TechniqueError
from repro.fleet import sim as fleet_sim
from repro.fleet.spec import FleetSpec, SiteSpec
from repro.runner import chaos
from repro.techniques.base import TechniqueContext
from repro.techniques.nop import FullService
from repro.techniques.registry import get_technique
from repro.workloads.registry import get_workload

WORKLOAD = "specjbb"
CONFIGURATION = "SmallPUPS"
#: Migration's transfer phase draws more than half the nameplate peak.
UNCOMPILABLE = "migration"


def _crash_through():
    workload = get_workload(WORKLOAD)
    datacenter = make_datacenter(workload, get_configuration(CONFIGURATION))
    return FullService().compile_plan(
        TechniqueContext(cluster=datacenter.cluster, workload=workload)
    )


class _Spy:
    """Records what a module's ``plant`` returned."""

    def __init__(self):
        self.built = []

    def __call__(self, *args, **kwargs):
        result = plant(*args, **kwargs)
        self.built.append(result)
        return result


class TestPlant:
    def test_compilable_technique_keeps_its_plan(self):
        workload = get_workload(WORKLOAD)
        configuration = get_configuration("LargeEUPS")
        datacenter, plan = plant(workload, configuration, get_technique("sleep-l"))
        assert plan.technique_name == "sleep-l"
        assert datacenter == make_datacenter(workload, configuration)

    def test_uncompilable_technique_falls_back_to_crash_through(self):
        workload = get_workload(WORKLOAD)
        configuration = get_configuration(CONFIGURATION)
        technique = get_technique(UNCOMPILABLE)
        datacenter = make_datacenter(workload, configuration)
        with pytest.raises(TechniqueError):
            technique.compile_plan(
                TechniqueContext(
                    cluster=datacenter.cluster,
                    workload=workload,
                    power_budget_watts=plan_power_budget_watts(datacenter),
                )
            )
        _, plan = plant(workload, configuration, technique)
        assert plan == _crash_through()
        assert plan.technique_name == "full-service"

    def test_availability_study_builds_the_crash_through_plant(self):
        analyzer = AvailabilityAnalyzer(get_workload(WORKLOAD), seed=1)
        for engine in ("scalar", "batch"):
            jobs, _ = analyzer.prepare(
                get_configuration(CONFIGURATION),
                get_technique(UNCOMPILABLE),
                years=2,
                engine=engine,
            )
            assert jobs[0].spec["plan"] == _crash_through()

    def test_fleet_site_builds_the_crash_through_plant(self, monkeypatch):
        spy = _Spy()
        monkeypatch.setattr(fleet_sim, "plant", spy)
        fleet = FleetSpec(
            name="solo",
            sites=(
                SiteSpec(
                    name="a",
                    workload=WORKLOAD,
                    configuration=CONFIGURATION,
                    technique=UNCOMPILABLE,
                ),
            ),
        )
        fleet_sim.simulate_fleet_year(
            {"fleet": fleet, "routing": True}, np.random.SeedSequence(0)
        )
        assert [p for _, p in spy.built] == [_crash_through()]

    def test_chaos_harness_builds_the_crash_through_plant(
        self, monkeypatch, tmp_path
    ):
        spy = _Spy()
        monkeypatch.setattr(chaos, "plant", spy)
        report = chaos.run_chaos(
            get_workload(WORKLOAD),
            get_configuration(CONFIGURATION),
            get_technique(UNCOMPILABLE),
            years=1,
            jobs=1,
            kills=0,
            flaky=0,
            corrupt=0,
            workdir=tmp_path,
        )
        assert report.ok
        assert [p for _, p in spy.built] == [_crash_through()]
