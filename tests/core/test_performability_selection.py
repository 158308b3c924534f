"""Performability evaluation and the Section 6 selection rules."""

import math

import pytest

from repro.core.configurations import get_configuration
from repro.core.performability import (
    evaluate_point,
    make_datacenter,
    plan_power_budget_watts,
)
from repro.core.selection import (
    best_technique,
    lowest_cost_backup,
    rank_techniques,
)
from repro.errors import InfeasibleError
from repro.techniques.registry import get_technique
from repro.units import hours, minutes
from repro.workloads.memcached import memcached
from repro.workloads.specjbb import specjbb


class TestEvaluatePoint:
    def test_maxperf_point(self):
        point = evaluate_point(
            get_configuration("MaxPerf"),
            get_technique("full-service"),
            specjbb(),
            minutes(30),
        )
        assert point.feasible
        assert point.performance == pytest.approx(1.0)
        assert point.downtime_seconds == 0.0
        assert point.normalized_cost == pytest.approx(1.0)

    def test_infeasible_technique_reported_not_raised(self):
        # Throttling cannot fit a 10 %-power UPS.
        from repro.core.configurations import BackupConfiguration

        tiny = BackupConfiguration("tiny", 0.0, 0.1, minutes(2))
        point = evaluate_point(
            tiny, get_technique("throttling"), specjbb(), minutes(5)
        )
        assert not point.feasible
        assert point.performance == 0.0
        assert math.isinf(point.downtime_seconds)
        assert point.crashed

    def test_budget_is_ups_rating_when_ups_present(self):
        dc = make_datacenter(specjbb(), get_configuration("DG-SmallPUPS"))
        assert plan_power_budget_watts(dc) == pytest.approx(
            0.5 * dc.cluster.peak_power_watts
        )

    def test_budget_is_dg_rating_when_no_ups(self):
        dc = make_datacenter(specjbb(), get_configuration("NoUPS"))
        assert plan_power_budget_watts(dc) == pytest.approx(
            dc.cluster.peak_power_watts
        )

    def test_budget_unbounded_with_no_backup(self):
        dc = make_datacenter(specjbb(), get_configuration("MinCost"))
        assert math.isinf(plan_power_budget_watts(dc))

    def test_point_metadata(self):
        point = evaluate_point(
            get_configuration("NoDG"), get_technique("sleep"), specjbb(), 60
        )
        assert point.configuration_name == "NoDG"
        assert point.technique_name == "sleep"
        assert point.workload_name == "specjbb"
        assert point.downtime_minutes == pytest.approx(point.downtime_seconds / 60)


class TestBestTechnique:
    def test_maxperf_picks_full_service(self):
        point = best_technique(get_configuration("MaxPerf"), specjbb(), minutes(30))
        assert point.technique_name == "full-service"
        assert point.downtime_seconds == 0.0

    def test_nodg_short_outage_full_service(self):
        # 30 s fits inside the free 2-minute runtime: nothing beats just
        # riding it out at full performance.
        point = best_technique(get_configuration("NoDG"), specjbb(), 30)
        assert point.downtime_seconds == 0.0
        assert point.performance == pytest.approx(1.0)

    def test_nodg_5min_prefers_deep_throttle(self):
        # Paper: NoDG at 5 min degrades to ~60 % but stays up.
        point = best_technique(get_configuration("NoDG"), specjbb(), minutes(5))
        assert point.downtime_seconds == 0.0
        assert 0.4 < point.performance < 0.8

    def test_largeeups_full_service_through_30min(self):
        # Paper: LargeEUPS matches MaxPerf up to its 30-minute runtime.
        point = best_technique(get_configuration("LargeEUPS"), specjbb(), minutes(30))
        assert point.downtime_seconds == 0.0
        assert point.performance == pytest.approx(1.0)

    def test_mincost_point_still_returned(self):
        point = best_technique(get_configuration("MinCost"), specjbb(), 30)
        assert point.feasible
        assert point.downtime_seconds > 0


class TestLowestCostBackup:
    def test_sleep_l_sized_cheap_for_short_outage(self):
        sized = lowest_cost_backup(get_technique("sleep-l"), specjbb(), 30)
        assert sized.normalized_cost < 0.25
        assert not sized.point.crashed

    def test_full_power_needed_for_plain_sleep(self):
        # Plain sleep suspends at ~full draw, so its UPS must be near
        # full power; Sleep-L halves that.
        plain = lowest_cost_backup(get_technique("sleep"), specjbb(), 30)
        low = lowest_cost_backup(get_technique("sleep-l"), specjbb(), 30)
        assert (
            low.configuration.ups_power_fraction
            < plain.configuration.ups_power_fraction
        )
        assert low.normalized_cost < plain.normalized_cost

    def test_throttling_expensive_for_very_long_outage(self):
        # Paper: throttling "becomes infeasible ... for cost less than 56 %
        # of MaxPerf" on long outages — a big enough battery always works,
        # but at a price far above the sleep hybrids.
        throttled = lowest_cost_backup(get_technique("throttling"), specjbb(), hours(6))
        hybrid = lowest_cost_backup(
            get_technique("throttle+sleep-l"), specjbb(), hours(6)
        )
        assert throttled.normalized_cost > 2 * hybrid.normalized_cost

    def test_runtime_cap_makes_throttling_infeasible(self):
        with pytest.raises(InfeasibleError):
            lowest_cost_backup(
                get_technique("throttling"),
                specjbb(),
                hours(6),
                max_runtime_seconds=minutes(30),
            )

    def test_throttle_sleep_l_survives_two_hours_cheaply(self):
        # Paper: Throttle+Sleep-L sustains 2 h at ~20 % of MaxPerf cost.
        sized = lowest_cost_backup(
            get_technique("throttle+sleep-l"), specjbb(), hours(2)
        )
        assert sized.normalized_cost < 0.3
        assert not sized.point.crashed

    def test_proactive_migration_cheaper_than_migration_for_memcached(self):
        # Paper (Figure 7): PM saves ~20 % more than Migration because the
        # read-only cache leaves almost nothing to move.
        mc = memcached()
        migration = lowest_cost_backup(get_technique("migration"), mc, minutes(30))
        proactive = lowest_cost_backup(
            get_technique("proactive-migration"), mc, minutes(30)
        )
        assert proactive.normalized_cost < migration.normalized_cost

    def test_runtime_minimality(self):
        # Shrinking the found runtime by 20 % must crash the plan.
        from repro.core.configurations import BackupConfiguration

        sized = lowest_cost_backup(
            get_technique("throttling-p6"), specjbb(), minutes(10)
        )
        config = sized.configuration
        smaller = BackupConfiguration(
            "probe",
            0.0,
            config.ups_power_fraction,
            max(1.0, config.ups_runtime_seconds * 0.8),
        )
        point = evaluate_point(
            smaller, get_technique("throttling-p6"), specjbb(), minutes(10)
        )
        assert point.crashed or not point.feasible


class TestRankTechniques:
    def test_rank_sorted_by_cost(self):
        ranking = rank_techniques(
            specjbb(),
            minutes(30),
            technique_names=("sleep-l", "throttling", "hibernate"),
        )
        costs = [sized.normalized_cost for sized in ranking]
        assert costs == sorted(costs)
        assert len(ranking) >= 2

    def test_sleep_l_ranks_first_for_long_outages(self):
        ranking = rank_techniques(
            specjbb(),
            hours(6),
            technique_names=("throttling", "sleep-l"),
        )
        assert ranking[0].point.technique_name == "sleep-l"


def _probe_every_runtime(
    technique, workload, outage_seconds, power_fraction, num_servers, server,
    max_runtime_seconds,
):
    """The runtime search without the compile short cut: it probes the
    same doubling and bisection runtimes even at fractions whose plan
    cannot compile — the reference the short cut must reproduce."""
    from repro.core.configurations import BackupConfiguration
    from repro.core.selection import _RUNTIME_TOLERANCE
    from repro.power.ups import DEFAULT_FREE_RUNTIME_SECONDS

    def survives(runtime_seconds):
        point = evaluate_point(
            BackupConfiguration("probe", 0.0, power_fraction, runtime_seconds),
            technique,
            workload,
            outage_seconds,
            num_servers=num_servers,
            server=server,
        )
        return point.feasible and not point.crashed

    low = DEFAULT_FREE_RUNTIME_SECONDS
    if survives(low):
        return low
    high = max(low * 2, 600.0)
    while high <= max_runtime_seconds and not survives(high):
        high *= 2.0
    if high > max_runtime_seconds:
        if not survives(max_runtime_seconds):
            return None
        high = max_runtime_seconds
    lo, hi = low, high
    while hi - lo > _RUNTIME_TOLERANCE:
        mid = (lo + hi) / 2.0
        if survives(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestRuntimeSearchShortCut:
    """A UPS fraction whose plan cannot compile is dropped after one
    probe: the power budget, and so compilation, ignores runtime."""

    @staticmethod
    def _counted_rank(monkeypatch):
        from repro.techniques.base import OutageTechnique

        calls = []
        compile_plan = OutageTechnique.compile_plan

        def counting(self, context):
            calls.append(self.name)
            return compile_plan(self, context)

        monkeypatch.setattr(OutageTechnique, "compile_plan", counting)
        ranking = rank_techniques(specjbb(), hours(4))
        monkeypatch.setattr(OutageTechnique, "compile_plan", compile_plan)
        records = [
            (
                sized.point.technique_name,
                sized.configuration,
                sized.normalized_cost,
                sized.point.performance,
                sized.point.downtime_seconds,
                sized.point.crashed,
            )
            for sized in ranking
        ]
        return records, len(calls)

    def test_four_hour_rank_same_with_fewer_compiles(self, monkeypatch):
        from repro.core import selection

        records, calls = self._counted_rank(monkeypatch)
        monkeypatch.setattr(
            selection, "_minimal_runtime", _probe_every_runtime
        )
        reference, reference_calls = self._counted_rank(monkeypatch)
        assert records == reference
        assert len(records) >= 5
        assert calls < reference_calls
