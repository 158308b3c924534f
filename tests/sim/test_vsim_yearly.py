"""Year-block batching: bit-identical to scalar years at any block size."""

import numpy as np
import pytest

from repro.analysis.availability import AvailabilityAnalyzer, _simulate_year
from repro.core.configurations import get_configuration
from repro.core.performability import make_datacenter, plan_power_budget_watts
from repro.errors import SimulationError
from repro.techniques.base import TechniqueContext
from repro.techniques.registry import get_technique
from repro.units import hours
from repro.vsim.yearly import simulate_year_block, year_block_specs
from repro.workloads.registry import get_workload


def study(config_name="DG-SmallPUPS", technique_name="sleep-l"):
    workload = get_workload("specjbb")
    datacenter = make_datacenter(workload, get_configuration(config_name))
    plan = get_technique(technique_name).compile_plan(
        TechniqueContext(
            cluster=datacenter.cluster,
            workload=workload,
            power_budget_watts=plan_power_budget_watts(datacenter),
        )
    )
    return datacenter, plan


class TestYearBlock:
    @pytest.mark.parametrize(
        "config,technique",
        [
            ("DG-SmallPUPS", "sleep-l"),
            ("SmallPUPS", "throttle+sleep-l"),
            ("NoUPS", "migration"),
        ],
    )
    def test_matches_scalar_years(self, config, technique):
        datacenter, plan = study(config, technique)
        years, base_seed = 8, 11
        spec = {
            "datacenter": datacenter,
            "plan": plan,
            "recharge_seconds": hours(8),
        }
        seeds = np.random.SeedSequence(base_seed).spawn(years)
        scalar = [_simulate_year(spec, s) for s in seeds]
        batch = simulate_year_block(
            {
                **spec,
                "base_seed": base_seed,
                "start": 0,
                "count": years,
                "total_years": years,
            }
        )
        assert scalar == batch  # dict equality is exact float equality

    def test_late_block_of_a_long_study_matches_scalar_years(self):
        """A block deep into a long study derives its seeds by position
        alone; they must be the runner's ``spawn(total)`` children."""
        datacenter, plan = study()
        total, start, base_seed = 5000, 4990, 13
        spec = {
            "datacenter": datacenter,
            "plan": plan,
            "recharge_seconds": hours(8),
        }
        seeds = np.random.SeedSequence(base_seed).spawn(total)[start:]
        scalar = [_simulate_year(spec, s) for s in seeds]
        batch = simulate_year_block(
            {
                **spec,
                "base_seed": base_seed,
                "start": start,
                "count": total - start,
                "total_years": total,
            }
        )
        assert scalar == batch

    def test_block_size_invariance(self):
        datacenter, plan = study()
        years, base_seed = 10, 3
        by_block = {}
        for block_years in (3, 10):
            out = []
            for spec in year_block_specs(
                datacenter, plan, hours(8), base_seed, years, block_years
            ):
                out.extend(simulate_year_block(spec))
            by_block[block_years] = out
        assert by_block[3] == by_block[10]

    def test_rejects_bad_block_range(self):
        datacenter, plan = study()
        with pytest.raises(SimulationError):
            simulate_year_block(
                {
                    "datacenter": datacenter,
                    "plan": plan,
                    "recharge_seconds": hours(8),
                    "base_seed": 0,
                    "start": 5,
                    "count": 3,
                    "total_years": 6,
                }
            )


class TestAnalyzerEngine:
    def test_batch_report_equals_scalar(self):
        analyzer = AvailabilityAnalyzer(get_workload("websearch"), seed=5)
        config = get_configuration("DG-SmallPUPS")
        technique = get_technique("sleep-l")
        scalar = analyzer.analyze(config, technique, years=20)
        batch = analyzer.analyze(config, technique, years=20, engine="batch")
        assert scalar == batch

    def test_unknown_engine_rejected(self):
        analyzer = AvailabilityAnalyzer(get_workload("websearch"))
        with pytest.raises(ValueError):
            analyzer.analyze(
                get_configuration("DG-SmallPUPS"),
                get_technique("sleep-l"),
                years=1,
                engine="vectorised",
            )

    def test_fault_studies_stay_scalar(self):
        from repro.faults import FaultPlan

        analyzer = AvailabilityAnalyzer(get_workload("websearch"), seed=5)
        faults = FaultPlan.parse("dg_start=0.2")
        scalar = analyzer.analyze(
            get_configuration("DG-SmallPUPS"),
            get_technique("sleep-l"),
            years=5,
            faults=faults,
        )
        batch = analyzer.analyze(
            get_configuration("DG-SmallPUPS"),
            get_technique("sleep-l"),
            years=5,
            faults=faults,
            engine="batch",
        )
        assert scalar == batch
